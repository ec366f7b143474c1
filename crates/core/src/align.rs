//! Cache-line-aligned heap storage for hot numeric tables.
//!
//! `AlignedVec<T>` is a fixed-length boxed slice whose allocation starts on
//! a 64-byte boundary. Embedding tables and scratch score buffers use it so
//! SIMD kernels can issue aligned loads for the leading lanes and rows never
//! straddle an extra cache line when `dim * size_of::<T>()` is a multiple
//! of 64. The length is fixed at construction — the scoring paths never
//! grow a table in place.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;

/// Cache line size every allocation is aligned to.
pub const CACHE_LINE: usize = 64;

/// A fixed-length, 64-byte-aligned slice of `T` on the heap.
pub struct AlignedVec<T: Copy> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: the buffer is uniquely owned (freed only in Drop) and `T: Copy`
// carries no references, so transferring the allocation between threads is
// exactly as safe as transferring a `Vec<T>`.
unsafe impl<T: Copy + Send> Send for AlignedVec<T> {}
// SAFETY: shared access hands out `&[T]` only; `T: Copy + Sync` makes the
// element type safe to read concurrently.
unsafe impl<T: Copy + Sync> Sync for AlignedVec<T> {}

impl<T: Copy> AlignedVec<T> {
    fn layout(len: usize) -> Layout {
        let size = std::mem::size_of::<T>().checked_mul(len).expect("AlignedVec size overflow");
        let align = CACHE_LINE.max(std::mem::align_of::<T>());
        Layout::from_size_align(size, align).expect("AlignedVec layout")
    }

    fn alloc_uninit(len: usize) -> NonNull<T> {
        if len == 0 {
            // Dangling but well-aligned; never dereferenced for len 0.
            return NonNull::dangling();
        }
        let layout = Self::layout(len);
        assert!(layout.size() > 0, "AlignedVec does not support zero-sized element types");
        // SAFETY: layout has non-zero size — len > 0 here, and the assert
        // above rejects zero-sized element types.
        let raw = unsafe { alloc(layout) }.cast::<T>();
        match NonNull::new(raw) {
            Some(p) => p,
            None => handle_alloc_error(layout),
        }
    }

    /// New buffer of `len` copies of `fill`.
    pub fn from_elem(fill: T, len: usize) -> Self {
        Self::from_fn(len, |_| fill)
    }

    /// New buffer whose element `i` is `f(i)`, called for `i` in
    /// `0..len` in order and written in place — no temporary `Vec`, so a
    /// table is built holding one copy of itself. (Should `f` panic, the
    /// allocation leaks; it is never read.)
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        let ptr = Self::alloc_uninit(len);
        for i in 0..len {
            // SAFETY: i < len, allocation holds len elements.
            unsafe { ptr.as_ptr().add(i).write(f(i)) };
        }
        AlignedVec { ptr, len }
    }

    /// New buffer copying `src`.
    pub fn from_slice(src: &[T]) -> Self {
        let ptr = Self::alloc_uninit(src.len());
        if !src.is_empty() {
            // SAFETY: allocation holds src.len() elements; regions disjoint.
            unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), ptr.as_ptr(), src.len()) };
        }
        AlignedVec { ptr, len: src.len() }
    }

    /// The whole buffer as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr is valid for len initialised elements.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The whole buffer as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: ptr is valid for len initialised elements, uniquely owned.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl AlignedVec<f32> {
    /// New zero-filled f32 buffer (the scratch-buffer constructor).
    pub fn zeroed(len: usize) -> Self {
        Self::from_elem(0.0, len)
    }
}

impl<T: Copy> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: allocated with the identical layout in alloc_uninit.
            unsafe { dealloc(self.ptr.as_ptr().cast::<u8>(), Self::layout(self.len)) };
        }
    }
}

impl<T: Copy> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl<T: Copy> Default for AlignedVec<T> {
    fn default() -> Self {
        AlignedVec { ptr: NonNull::dangling(), len: 0 }
    }
}

impl<T: Copy> std::ops::Deref for AlignedVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> std::ops::DerefMut for AlignedVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + PartialEq> PartialEq for AlignedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy> FromIterator<T> for AlignedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let v: Vec<T> = iter.into_iter().collect();
        Self::from_slice(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_cache_line_aligned() {
        for len in [1usize, 7, 16, 1000] {
            let v = AlignedVec::<f32>::zeroed(len);
            assert_eq!(v.as_slice().as_ptr() as usize % CACHE_LINE, 0, "len {len}");
            assert_eq!(v.len(), len);
            assert!(v.iter().all(|&x| x == 0.0));
        }
        let b = AlignedVec::<u8>::from_elem(3, 65);
        assert_eq!(b.as_slice().as_ptr() as usize % CACHE_LINE, 0);
        assert_eq!(b.len(), 65);
    }

    #[test]
    fn from_slice_roundtrip_and_clone() {
        let src: Vec<f32> = (0..37).map(|i| i as f32 * 0.5).collect();
        let v = AlignedVec::from_slice(&src);
        assert_eq!(v.as_slice(), src.as_slice());
        let c = v.clone();
        assert_eq!(c, v);
        assert_ne!(c.as_ptr(), v.as_ptr(), "clone owns distinct storage");
    }

    #[test]
    fn empty_and_default_are_safe() {
        let v = AlignedVec::<f32>::default();
        assert!(v.is_empty());
        let w = AlignedVec::<u16>::from_slice(&[]);
        assert!(w.as_slice().is_empty());
        let _ = w.clone();
    }

    #[test]
    fn mutation_through_deref() {
        let mut v = AlignedVec::<f32>::zeroed(4);
        v[2] = 9.0;
        v.as_mut_slice()[0] = 1.0;
        assert_eq!(v.as_slice(), &[1.0, 0.0, 9.0, 0.0]);
    }

    #[test]
    fn from_fn_fills_in_index_order() {
        let mut calls = Vec::new();
        let v = AlignedVec::from_fn(5, |i| {
            calls.push(i);
            i as f32 * 2.0
        });
        assert_eq!(v.as_slice(), &[0.0, 2.0, 4.0, 6.0, 8.0]);
        assert_eq!(calls, [0, 1, 2, 3, 4]);
        assert_eq!(v.as_ptr() as usize % CACHE_LINE, 0);
        assert!(AlignedVec::<f32>::from_fn(0, |_| unreachable!()).is_empty());
    }

    #[test]
    fn collects_from_iterator() {
        let v: AlignedVec<u16> = (0u16..5).collect();
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
    }
}
