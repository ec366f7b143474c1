//! In-tree, std-only stand-in for the `bytes` crate: little-endian scalar
//! puts/gets over `Vec<u8>` behind `Buf`/`BufMut`/`Bytes`/`BytesMut`.
//! No workspace code calls it; `kg-models` still lists it because
//! dropping that line rewrites the frozen `perf/Cargo.lock`.

/// Read side: a cursor over immutable bytes.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];

    /// Consume `n` bytes.
    fn advance(&mut self, n: usize);

    /// Fill `dst` from the front of the buffer.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "Buf: not enough bytes");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Next byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Next little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Next little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Next little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Next little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    /// Next little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

/// Write side: append-only byte sink.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }

    /// Append a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

/// Growable byte buffer (the write half).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { inner: Vec::with_capacity(cap) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Freeze into an immutable [`Bytes`] cursor.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.inner)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Vec<u8> {
        b.inner
    }
}

/// Immutable bytes with a consuming cursor (the read half).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Total length including already-consumed bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the backing buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data, pos: 0 }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes { data: data.to_vec(), pos: 0 }
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn chunk(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.remaining(), "Bytes: advance past end");
        self.pos += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = BytesMut::new();
        w.put_slice(b"KGEV");
        w.put_u16_le(1);
        w.put_u8(7);
        w.put_u64_le(u64::MAX - 3);
        w.put_f32_le(-0.5);
        w.put_f64_le(std::f64::consts::PI);
        let mut r = Bytes::from(Vec::from(w));
        let mut magic = [0u8; 4];
        r.copy_to_slice(&mut magic);
        assert_eq!(&magic, b"KGEV");
        assert_eq!(r.get_u16_le(), 1);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u64_le(), u64::MAX - 3);
        assert_eq!(r.get_f32_le(), -0.5);
        assert_eq!(r.get_f64_le(), std::f64::consts::PI);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "not enough bytes")]
    fn overread_panics() {
        let mut r = Bytes::from(vec![1u8]);
        let _ = r.get_u16_le();
    }

    #[test]
    fn bytesmut_derefs_to_slice() {
        let mut w = BytesMut::with_capacity(4);
        w.put_u32_le(0x0403_0201);
        assert_eq!(&w[..], &[1, 2, 3, 4]);
        assert_eq!(w.len(), 4);
    }
}
