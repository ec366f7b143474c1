//! Model persistence: save/load trained models to a compact binary format.
//!
//! A production evaluation framework must evaluate models trained
//! elsewhere/earlier (the paper's §5.3 evaluates *pretrained* ComplEx
//! embeddings); this module provides a versioned little-endian format:
//!
//! ```text
//! magic "KGEV" | format u16 | kind tag u8 | precision hint u8 (v2) |
//! num_entities u64 | num_relations u64 | dim u64 | table count u8 |
//! per table: len u64 + f32s
//! ```
//!
//! Parameter tables are always stored at exact f32; the v2 *precision hint*
//! records what precision the producer recommends serving at (quantization
//! happens on load, never on save, so a snapshot stays usable for further
//! training and for exact serving regardless of the hint). Format v1
//! snapshots load with an implicit f32 hint.
//!
//! Both directions hold each table once. The writer streams the model's
//! borrowed tables through one fixed `CHUNK`-byte buffer. The reader
//! derives every table's length from the header
//! ([`ModelKind::table_lens`]), checks the header plus those tables against
//! the stream's length before it allocates anything, then reads each table
//! straight into the model it builds, through the same fixed buffer.
//!
//! Adagrad accumulators are not persisted — a loaded model scores
//! identically but restarts optimiser state if trained further.

use std::io::{Read, Write};
use std::path::Path;

use kg_core::KgError;

use crate::embedding::Zeroed;
use crate::factory::{build_with, ModelKind};
use crate::kernels::Precision;
use crate::model::TrainableModel;

const MAGIC: &[u8; 4] = b"KGEV";
const FORMAT_V1: u16 = 1;
const FORMAT: u16 = 2;
/// Header bytes of a v1 snapshot; v2 adds the one-byte precision hint.
const HEADER_V1: u64 = 4 + 2 + 1 + 24 + 1;
/// The fixed buffer each direction streams table bytes through.
const CHUNK: usize = 64 << 10;

fn kind_tag(kind: ModelKind) -> u8 {
    match kind {
        ModelKind::TransE => 0,
        ModelKind::DistMult => 1,
        ModelKind::ComplEx => 2,
        ModelKind::Rescal => 3,
        ModelKind::RotatE => 4,
        ModelKind::TuckEr => 5,
        ModelKind::ConvE => 6,
    }
}

fn kind_from_tag(tag: u8) -> Option<ModelKind> {
    Some(match tag {
        0 => ModelKind::TransE,
        1 => ModelKind::DistMult,
        2 => ModelKind::ComplEx,
        3 => ModelKind::Rescal,
        4 => ModelKind::RotatE,
        5 => ModelKind::TuckEr,
        6 => ModelKind::ConvE,
        _ => return None,
    })
}

fn fail(msg: impl std::fmt::Display) -> KgError {
    KgError::InvalidInput(format!("model snapshot: {msg}"))
}

/// A model read back from a snapshot, with what its header declared.
pub struct LoadedModel {
    /// The exact-f32 model.
    pub model: Box<dyn TrainableModel>,
    /// Which architecture.
    pub kind: ModelKind,
    /// Serving-precision recommendation (the tables themselves are f32).
    pub precision_hint: Precision,
}

/// Save a trained model.
pub fn save_model<W: Write>(
    model: &dyn TrainableModel,
    kind: ModelKind,
    w: &mut W,
) -> Result<(), KgError> {
    save_model_with_hint(model, kind, Precision::F32, w)
}

/// Save a trained model with a serving-precision recommendation baked into
/// the snapshot header (tables are still written at exact f32). The only
/// writer: it streams the model's borrowed tables through one
/// `CHUNK`-byte buffer and never copies a table whole.
pub fn save_model_with_hint<W: Write>(
    model: &dyn TrainableModel,
    kind: ModelKind,
    hint: Precision,
    w: &mut W,
) -> Result<(), KgError> {
    let tables = model.param_tables();
    let mut buf = Vec::with_capacity(CHUNK);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&FORMAT.to_le_bytes());
    buf.push(kind_tag(kind));
    buf.push(hint.to_byte());
    for field in [model.num_entities(), model.num_relations(), model.dim()] {
        buf.extend_from_slice(&(field as u64).to_le_bytes());
    }
    buf.push(tables.len() as u8);
    for table in tables {
        buf.extend_from_slice(&(table.len() as u64).to_le_bytes());
        for floats in table.chunks(CHUNK / 4) {
            if buf.len() + 4 * floats.len() > CHUNK {
                w.write_all(&buf)?;
                buf.clear();
            }
            let at = buf.len();
            buf.resize(at + 4 * floats.len(), 0);
            for (bytes, v) in buf[at..].chunks_exact_mut(4).zip(floats) {
                bytes.copy_from_slice(&v.to_le_bytes());
            }
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

/// `u64` at `at` in `bytes`, little-endian.
fn u64_at(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(word)
}

/// Read a model from `r`, which holds exactly `len` more bytes: the only
/// reader.
///
/// Everything the file declares is outside input (`POST /admin/models`
/// takes a path), so nothing is allocated until the header has named a
/// shape its family's constructor accepts and the stream is exactly long
/// enough for the header plus every table that shape implies. Each table
/// is then read straight into the freshly built model, after its declared
/// length is checked against the bytes left and against the shape.
pub fn read_model<R: Read>(r: &mut R, len: u64) -> Result<LoadedModel, KgError> {
    if len < HEADER_V1 {
        return Err(fail("truncated header"));
    }
    let mut head = [0u8; HEADER_V1 as usize + 1];
    r.read_exact(&mut head[..7])?;
    if &head[..4] != MAGIC {
        return Err(fail("bad magic"));
    }
    let format = u16::from_le_bytes([head[4], head[5]]);
    if format != FORMAT && format != FORMAT_V1 {
        return Err(fail("unsupported format version"));
    }
    let kind = kind_from_tag(head[6]).ok_or_else(|| fail("unknown model kind"))?;
    let header_len = HEADER_V1 + u64::from(format >= 2);
    if len < header_len {
        return Err(fail("truncated header"));
    }
    let head = &mut head[..header_len as usize];
    r.read_exact(&mut head[7..])?;
    let (precision_hint, fields) = if format >= 2 {
        let hint = Precision::from_byte(head[7]).ok_or_else(|| fail("unknown precision hint"))?;
        (hint, &head[8..])
    } else {
        // v1 predates the hint byte: implicit exact-f32 serving.
        (Precision::F32, &head[7..])
    };
    let field = |i: usize| {
        usize::try_from(u64_at(fields, 8 * i)).map_err(|_| fail("shape overflows usize"))
    };
    let (ne, nr, dim) = (field(0)?, field(1)?, field(2)?);
    let lens = kind.table_lens(ne, nr, dim).map_err(fail)?;
    let n_tables = usize::from(fields[24]);
    if n_tables != lens.len() {
        return Err(fail(format!(
            "a {} has {} tables, the header declares {n_tables}",
            kind.name(),
            lens.len()
        )));
    }
    let mut end = header_len;
    for &n in &lens {
        end = end
            .checked_add(8)
            .filter(|&e| e <= len)
            .ok_or_else(|| fail("truncated table header"))?;
        end = (n as u64)
            .checked_mul(4)
            .and_then(|bytes| end.checked_add(bytes))
            .filter(|&e| e <= len)
            .ok_or_else(|| fail("truncated table payload"))?;
    }
    if end < len {
        return Err(fail(format!("{} bytes past the last table", len - end)));
    }

    // Zeroed, not drawn: every value is about to be overwritten.
    let mut model = build_with(kind, ne, nr, dim, &mut Zeroed);
    let mut left = len - header_len;
    let mut buf = vec![0u8; CHUNK];
    for (i, table) in model.param_tables_mut().into_iter().enumerate() {
        let mut word = [0u8; 8];
        r.read_exact(&mut word)?;
        left -= 8;
        // Check the declared length against the bytes actually present
        // (without overflowing) before trusting it any further.
        let declared = u64::from_le_bytes(word);
        if declared.checked_mul(4).is_none_or(|bytes| bytes > left) {
            return Err(fail("truncated table payload"));
        }
        if declared != table.len() as u64 {
            return Err(fail(format!(
                "table {i} declares {declared} floats; a {} of {ne}x{nr}x{dim} has {}",
                kind.name(),
                table.len()
            )));
        }
        for floats in table.chunks_mut(CHUNK / 4) {
            let bytes = &mut buf[..4 * floats.len()];
            r.read_exact(bytes)?;
            for (v, b) in floats.iter_mut().zip(bytes.chunks_exact(4)) {
                *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            }
        }
        left -= 4 * declared;
    }
    Ok(LoadedModel { model, kind, precision_hint })
}

/// Save a trained model to a file (creating parent directories).
///
/// The serving registry (`kg-serve`) loads these snapshots at registration
/// time; training jobs write them with this helper.
pub fn save_model_to_path(
    model: &dyn TrainableModel,
    kind: ModelKind,
    path: impl AsRef<Path>,
) -> Result<(), KgError> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::File::create(path)?;
    save_model(model, kind, &mut file)?;
    file.flush()?;
    Ok(())
}

/// [`read_model`] over a snapshot file written by [`save_model_to_path`],
/// its length taken from the file's metadata.
pub fn read_model_from_path(path: impl AsRef<Path>) -> Result<LoadedModel, KgError> {
    let mut file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    read_model(&mut file, len)
}

/// Load the model a snapshot file holds.
pub fn load_model_from_path(path: impl AsRef<Path>) -> Result<Box<dyn TrainableModel>, KgError> {
    Ok(read_model_from_path(path)?.model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::build_model;
    use crate::model::KgcModel;
    use crate::quantized::QuantizedModel;
    use kg_core::{EntityId, RelationId};

    fn read(raw: &[u8]) -> Result<LoadedModel, KgError> {
        read_model(&mut &raw[..], raw.len() as u64)
    }

    fn saved(model: &dyn TrainableModel, kind: ModelKind) -> Vec<u8> {
        let mut buf = Vec::new();
        save_model(model, kind, &mut buf).unwrap();
        buf
    }

    /// Save to memory and load back.
    fn roundtrip(
        model: &dyn TrainableModel,
        kind: ModelKind,
    ) -> Result<Box<dyn TrainableModel>, KgError> {
        Ok(read(&saved(model, kind))?.model)
    }

    #[test]
    fn roundtrip_preserves_scores_for_all_models() {
        for kind in ModelKind::ALL {
            let dim = match kind {
                ModelKind::ConvE => 16,
                ModelKind::Rescal | ModelKind::TuckEr => 8,
                _ => 12,
            };
            let model = build_model(kind, 9, 3, dim, 77);
            let loaded = roundtrip(model.as_ref(), kind).unwrap();
            assert_eq!(loaded.name(), model.name());
            for h in 0..9u32 {
                let s0 = model.score(EntityId(h), RelationId(1), EntityId((h + 1) % 9));
                let s1 = loaded.score(EntityId(h), RelationId(1), EntityId((h + 1) % 9));
                assert_eq!(s0, s1, "{} score changed after roundtrip", kind.name());
            }
        }
    }

    /// FNV-1a 64 of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The file format is frozen: these are the sizes and FNV-1a hashes of
    /// the bytes `save_model` wrote for each family (9 entities, 3
    /// relations, seed 77) when the writer still built the whole file in
    /// one buffer.
    #[test]
    fn saved_bytes_match_the_recorded_golden() {
        let golden = [
            (ModelKind::TransE, 12, 625, 0x9e1c_811a_983e_a628u64),
            (ModelKind::RotatE, 12, 553, 0xb1e7_70d7_781e_7bf8),
            (ModelKind::Rescal, 8, 1105, 0xda5b_d11c_d6e3_4ffd),
            (ModelKind::DistMult, 12, 625, 0x405f_7f4c_779e_760f),
            (ModelKind::ConvE, 16, 7613, 0x48eb_c33a_4ef6_54c4),
            (ModelKind::ComplEx, 12, 625, 0xd8a5_fe41_4020_73b6),
            (ModelKind::TuckEr, 8, 2489, 0x4225_b49c_93bd_ec55),
        ];
        for (kind, dim, len, hash) in golden {
            let bytes = saved(build_model(kind, 9, 3, dim, 77).as_ref(), kind);
            assert_eq!((bytes.len(), fnv1a(&bytes)), (len, hash), "{}", kind.name());
        }
    }

    /// A table longer than the fixed buffer crosses chunk boundaries on
    /// both sides at an offset that is not a multiple of the chunk.
    #[test]
    fn tables_larger_than_the_chunk_roundtrip_bit_exactly() {
        let model = build_model(ModelKind::DistMult, 1000, 3, 36, 5);
        let bytes = saved(model.as_ref(), ModelKind::DistMult);
        let loaded = read(&bytes).unwrap().model;
        assert_eq!(model.param_tables(), loaded.param_tables());
    }

    #[test]
    fn snapshot_header_fields() {
        let model = build_model(ModelKind::ComplEx, 7, 2, 8, 3);
        let loaded = read(&saved(model.as_ref(), ModelKind::ComplEx)).unwrap();
        assert_eq!(loaded.kind, ModelKind::ComplEx);
        assert_eq!(loaded.precision_hint, Precision::F32);
        assert_eq!(loaded.model.num_entities(), 7);
        assert_eq!(loaded.model.num_relations(), 2);
        assert_eq!(loaded.model.dim(), 8);
        assert_eq!(loaded.model.param_tables().len(), 2);
    }

    #[test]
    fn corrupted_input_is_rejected() {
        assert!(read(b"NOPE").is_err());
        let model = build_model(ModelKind::TransE, 5, 2, 8, 1);
        let mut buf = saved(model.as_ref(), ModelKind::TransE);
        buf.truncate(buf.len() - 3);
        assert!(read(&buf).is_err());
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(read(&bad_magic).is_err());
    }

    /// A header (either format) for `kind` at `ne × nr × dim` declaring
    /// `n_tables` tables, with none of them written yet.
    fn header(format: u16, kind: ModelKind, [ne, nr, dim]: [u64; 3], n_tables: u8) -> Vec<u8> {
        let mut raw = MAGIC.to_vec();
        raw.extend(format.to_le_bytes());
        raw.push(kind_tag(kind));
        if format >= 2 {
            raw.push(Precision::F32.to_byte());
        }
        for field in [ne, nr, dim] {
            raw.extend(field.to_le_bytes());
        }
        raw.push(n_tables);
        raw
    }

    /// A shape-valid snapshot (TransE, 1 entity × 1 relation × dim 4: two
    /// tables of 4 floats) whose *last* table declares `len` floats and is
    /// followed by `payload_floats` actual ones.
    fn snapshot_bytes(format: u16, len: u64, payload_floats: usize) -> Vec<u8> {
        let mut raw = header(format, ModelKind::TransE, [1, 1, 4], 2);
        raw.extend(4u64.to_le_bytes());
        raw.extend([0u8; 16]);
        raw.extend(len.to_le_bytes());
        raw.extend(std::iter::repeat_n(0u8, payload_floats * 4));
        raw
    }

    fn rejection(raw: &[u8]) -> String {
        match read(raw) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a {}-byte hostile snapshot was accepted", raw.len()),
        }
    }

    /// Table lengths are outside input (`POST /admin/models` takes a
    /// path). `len * 4` overflowing `usize` used to panic in debug and, in
    /// release, wrap to 4, pass the bounds check against the 16 bytes that
    /// follow, and die in `Vec::with_capacity` with `capacity overflow`.
    #[test]
    fn overflowing_table_length_is_rejected_not_a_panic() {
        let overflowing = snapshot_bytes(FORMAT, (1 << 62) + 1, 4);
        assert!(rejection(&overflowing).contains("truncated table payload"));
    }

    #[test]
    fn table_length_one_float_past_the_payload_is_rejected() {
        assert!(rejection(&snapshot_bytes(FORMAT, 5, 4)).contains("truncated table payload"));
        assert!(read(&snapshot_bytes(FORMAT, 4, 4)).is_ok());
    }

    /// A v1 header is one byte shorter; the same checks apply behind it.
    #[test]
    fn v1_header_is_bounds_checked_like_v2() {
        let v1 = snapshot_bytes(FORMAT_V1, 5, 4);
        assert!(rejection(&v1).contains("truncated table payload"));
        assert!(rejection(&v1[..31]).contains("truncated header"));
        assert!(rejection(&v1[..32]).contains("truncated table header"));
        assert!(read(&snapshot_bytes(FORMAT_V1, 4, 4)).is_ok());
    }

    /// The header used to reach `build_model` before any length check:
    /// an odd RotatE dim panicked in the constructor.
    #[test]
    fn odd_rotate_dim_is_an_error_not_a_panic() {
        let mut raw = header(FORMAT, ModelKind::RotatE, [2, 1, 3], 2);
        for len in [6u64, 1] {
            raw.extend(len.to_le_bytes());
            raw.extend(std::iter::repeat_n(0u8, 4 * len as usize));
        }
        let msg = rejection(&raw);
        assert!(msg.contains("RotatE needs an even dimension, got 3"), "{msg}");
    }

    /// … and a ConvE dim that is not a multiple of 4 did too.
    #[test]
    fn conve_dim_not_a_multiple_of_four_is_an_error_not_a_panic() {
        let mut raw = header(FORMAT, ModelKind::ConvE, [2, 1, 5], 7);
        raw.extend([0u8; 64]);
        let msg = rejection(&raw);
        assert!(msg.contains("ConvE dim must be a positive multiple of 4, got 5"), "{msg}");
    }

    /// A tiny file claiming 2^36 entities used to ask `build_model` for an
    /// 8 TiB table, and the failed allocation aborted the process. The
    /// stream-length check refuses it before anything is allocated.
    #[test]
    fn a_header_claiming_2_pow_36_entities_is_refused_before_allocating() {
        let mut raw = header(FORMAT, ModelKind::TransE, [1 << 36, 1, 32], 2);
        raw.extend((32u64 << 36).to_le_bytes());
        assert_eq!(raw.len(), 41);
        assert!(rejection(&raw).contains("truncated table payload"));
        assert!(rejection(&raw[..40]).contains("truncated table header"));
    }

    #[test]
    fn table_count_and_trailing_bytes_must_match_the_shape() {
        let model = build_model(ModelKind::TransE, 3, 2, 4, 1);
        let bytes = saved(model.as_ref(), ModelKind::TransE);
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(rejection(&extra).contains("1 bytes past the last table"));
        let mut three = bytes.clone();
        three[32] = 3;
        assert!(rejection(&three).contains("a TransE has 2 tables, the header declares 3"));
        // Entity count 3 → 2: the stream is now too long for the shape.
        let mut fewer = bytes;
        fewer[8] = 2;
        assert!(rejection(&fewer).contains("past the last table"));
    }

    /// A declared table length that fits the stream but not the shape.
    #[test]
    fn a_table_length_that_disagrees_with_the_shape_is_rejected() {
        let mut raw = snapshot_bytes(FORMAT, 4, 4);
        raw[33..41].copy_from_slice(&3u64.to_le_bytes());
        let msg = rejection(&raw);
        assert!(msg.contains("table 0 declares 3 floats; a TransE of 1x1x4 has 4"), "{msg}");
    }

    #[test]
    fn path_roundtrip_creates_dirs_and_preserves_scores() {
        let model = build_model(ModelKind::DistMult, 6, 2, 8, 11);
        let dir = std::env::temp_dir().join(format!("kgeval-io-{}", std::process::id()));
        let path = dir.join("nested/model.kgev");
        save_model_to_path(model.as_ref(), ModelKind::DistMult, &path).unwrap();
        let loaded = load_model_from_path(&path).unwrap();
        assert_eq!(
            model.score(EntityId(1), RelationId(0), EntityId(2)),
            loaded.score(EntityId(1), RelationId(0), EntityId(2))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_from_missing_path_errors() {
        assert!(load_model_from_path("/nonexistent/kgeval/model.kgev").is_err());
    }

    #[test]
    fn v1_snapshots_still_load() {
        let model = build_model(ModelKind::TransE, 5, 2, 8, 1);
        let v2 = saved(model.as_ref(), ModelKind::TransE);
        // Rewrite the header down to format 1: patch the version word and
        // drop the precision-hint byte (offset 7: magic 4 + format 2 + kind 1).
        let mut v1 = v2.clone();
        v1[4] = 1;
        v1.remove(7);
        let loaded = read(&v1).unwrap();
        assert_eq!(loaded.precision_hint, Precision::F32);
        assert_eq!(
            model.score(EntityId(1), RelationId(0), EntityId(3)),
            loaded.model.score(EntityId(1), RelationId(0), EntityId(3))
        );
    }

    #[test]
    fn precision_hint_roundtrips_and_does_not_change_tables() {
        let model = build_model(ModelKind::ComplEx, 6, 2, 8, 2);
        let mut buf = Vec::new();
        save_model_with_hint(model.as_ref(), ModelKind::ComplEx, Precision::Int8, &mut buf)
            .unwrap();
        let loaded = read(&buf).unwrap();
        assert_eq!(loaded.precision_hint, Precision::Int8);
        assert_eq!(
            model.score(EntityId(0), RelationId(1), EntityId(5)),
            loaded.model.score(EntityId(0), RelationId(1), EntityId(5))
        );
        let mut bad_hint = buf.clone();
        bad_hint[7] = 99;
        assert!(read(&bad_hint).is_err());
    }

    #[test]
    fn quantized_path_loader_respects_family_support() {
        let dir = std::env::temp_dir().join(format!("kgeval-ioq-{}", std::process::id()));
        let path = dir.join("m.kgev");
        let model = build_model(ModelKind::DistMult, 6, 2, 8, 11);
        save_model_to_path(model.as_ref(), ModelKind::DistMult, &path).unwrap();
        let load_quantized = |path: &Path| {
            let loaded = read_model_from_path(path)?;
            QuantizedModel::from_model(loaded.model.as_ref(), loaded.kind, Precision::Int8)
        };
        let quant = load_quantized(&path).unwrap();
        assert_eq!(quant.precision(), Precision::Int8);
        assert_eq!(quant.num_entities(), 6);
        let tucker = build_model(ModelKind::TuckEr, 6, 2, 8, 11);
        save_model_to_path(tucker.as_ref(), ModelKind::TuckEr, &path).unwrap();
        assert!(load_quantized(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loaded_model_can_keep_training() {
        use crate::trainer::{train_epoch, TrainConfig};
        let triples: Vec<kg_core::Triple> =
            (0..8).map(|i| kg_core::Triple::new(i, 0, (i + 1) % 8)).collect();
        let mut model = build_model(ModelKind::DistMult, 8, 1, 8, 5);
        let mut rng = kg_core::sample::seeded_rng(1);
        train_epoch(model.as_mut(), &triples, &TrainConfig::default(), &mut rng);
        let mut loaded = roundtrip(model.as_ref(), ModelKind::DistMult).unwrap();
        let loss = train_epoch(loaded.as_mut(), &triples, &TrainConfig::default(), &mut rng);
        assert!(loss.is_finite());
    }
}
