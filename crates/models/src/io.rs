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
//! Adagrad accumulators are not persisted — a loaded model scores
//! identically but restarts optimiser state if trained further.

use std::io::{Read, Write};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use kg_core::KgError;

use crate::embedding::EmbeddingTable;
use crate::factory::ModelKind;
use crate::kernels::Precision;
use crate::model::TrainableModel;
use crate::quantized::QuantizedModel;

const MAGIC: &[u8; 4] = b"KGEV";
const FORMAT_V1: u16 = 1;
const FORMAT: u16 = 2;

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

/// A model's parameter snapshot (tables in a model-specific order).
pub struct ModelSnapshot {
    /// Which architecture.
    pub kind: ModelKind,
    /// Entity count.
    pub num_entities: usize,
    /// Relation count.
    pub num_relations: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Serving-precision recommendation (tables themselves are f32).
    pub precision_hint: Precision,
    /// Raw parameter tables (model-defined order).
    pub tables: Vec<Vec<f32>>,
}

/// Serialise a snapshot to a writer.
pub fn write_snapshot<W: Write>(snapshot: &ModelSnapshot, w: &mut W) -> Result<(), KgError> {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u16_le(FORMAT);
    buf.put_u8(kind_tag(snapshot.kind));
    buf.put_u8(snapshot.precision_hint.to_byte());
    buf.put_u64_le(snapshot.num_entities as u64);
    buf.put_u64_le(snapshot.num_relations as u64);
    buf.put_u64_le(snapshot.dim as u64);
    buf.put_u8(snapshot.tables.len() as u8);
    for t in &snapshot.tables {
        buf.put_u64_le(t.len() as u64);
        for &v in t {
            buf.put_f32_le(v);
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Deserialise a snapshot from a reader.
pub fn read_snapshot<R: Read>(r: &mut R) -> Result<ModelSnapshot, KgError> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    let mut buf = Bytes::from(raw);
    let fail = |msg: &str| KgError::InvalidInput(format!("model snapshot: {msg}"));
    if buf.remaining() < 4 + 2 + 1 + 24 + 1 {
        return Err(fail("truncated header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(fail("bad magic"));
    }
    let format = buf.get_u16_le();
    if format != FORMAT && format != FORMAT_V1 {
        return Err(fail("unsupported format version"));
    }
    let kind = kind_from_tag(buf.get_u8()).ok_or_else(|| fail("unknown model kind"))?;
    if format >= 2 && buf.remaining() < 1 + 24 + 1 {
        return Err(fail("truncated header"));
    }
    let precision_hint = if format >= 2 {
        // v1 predates the hint byte: implicit exact-f32 serving.
        Precision::from_byte(buf.get_u8()).ok_or_else(|| fail("unknown precision hint"))?
    } else {
        Precision::F32
    };
    let num_entities = buf.get_u64_le() as usize;
    let num_relations = buf.get_u64_le() as usize;
    let dim = buf.get_u64_le() as usize;
    let n_tables = buf.get_u8() as usize;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        if buf.remaining() < 8 {
            return Err(fail("truncated table header"));
        }
        // `len` comes from the file: check it against the bytes actually
        // present (without overflowing) before allocating for it.
        let len = usize::try_from(buf.get_u64_le())
            .ok()
            .filter(|len| len.checked_mul(4).is_some_and(|bytes| bytes <= buf.remaining()))
            .ok_or_else(|| fail("truncated table payload"))?;
        let mut t = Vec::with_capacity(len);
        for _ in 0..len {
            t.push(buf.get_f32_le());
        }
        tables.push(t);
    }
    Ok(ModelSnapshot { kind, num_entities, num_relations, dim, precision_hint, tables })
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
/// the snapshot header (tables are still written at exact f32).
pub fn save_model_with_hint<W: Write>(
    model: &dyn TrainableModel,
    kind: ModelKind,
    hint: Precision,
    w: &mut W,
) -> Result<(), KgError> {
    let mut snapshot = snapshot_model(model, kind)?;
    snapshot.precision_hint = hint;
    write_snapshot(&snapshot, w)
}

/// Load a model saved by [`save_model`].
pub fn load_model<R: Read>(r: &mut R) -> Result<Box<dyn TrainableModel>, KgError> {
    let snapshot = read_snapshot(r)?;
    model_from_snapshot(&snapshot)
}

/// Rebuild an exact-f32 trainable model from a parsed snapshot.
pub fn model_from_snapshot(snapshot: &ModelSnapshot) -> Result<Box<dyn TrainableModel>, KgError> {
    let mut model = crate::factory::build_model(
        snapshot.kind,
        snapshot.num_entities,
        snapshot.num_relations,
        snapshot.dim,
        0,
    );
    restore_into(model.as_mut(), snapshot)?;
    Ok(model)
}

/// Snapshot a model through its [`TrainableModel::export_tables`] hook
/// (hint defaults to exact f32; see [`save_model_with_hint`]).
pub fn snapshot_model(
    model: &dyn TrainableModel,
    kind: ModelKind,
) -> Result<ModelSnapshot, KgError> {
    let tables = model.export_tables();
    if tables.is_empty() {
        return Err(KgError::InvalidInput(format!(
            "{} does not support persistence",
            model.name()
        )));
    }
    Ok(ModelSnapshot {
        kind,
        num_entities: model.num_entities(),
        num_relations: model.num_relations(),
        dim: model.dim(),
        precision_hint: Precision::F32,
        tables,
    })
}

fn restore_into(model: &mut dyn TrainableModel, snapshot: &ModelSnapshot) -> Result<(), KgError> {
    model.import_tables(&snapshot.tables).map_err(KgError::InvalidInput)
}

/// Save a trained model to a file (creating parent directories).
///
/// The serving registry (`kg-serve`) loads these snapshots at registration
/// time; training jobs write them with this helper.
pub fn save_model_to_path(
    model: &dyn TrainableModel,
    kind: ModelKind,
    path: impl AsRef<std::path::Path>,
) -> Result<(), KgError> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    save_model(model, kind, &mut file)?;
    use std::io::Write as _;
    file.flush()?;
    Ok(())
}

/// Load a model snapshot written by [`save_model_to_path`].
pub fn load_model_from_path(
    path: impl AsRef<std::path::Path>,
) -> Result<Box<dyn TrainableModel>, KgError> {
    let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
    load_model(&mut file)
}

/// Read a snapshot from a file without materialising a model.
pub fn read_snapshot_from_path(
    path: impl AsRef<std::path::Path>,
) -> Result<ModelSnapshot, KgError> {
    let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
    read_snapshot(&mut file)
}

/// Load a snapshot and quantize its entity table to `precision` for
/// serving. Fails for model families without a quantized scoring path
/// (TuckER, ConvE) — quantization is never silent.
pub fn load_quantized_from_path(
    path: impl AsRef<std::path::Path>,
    precision: Precision,
) -> Result<QuantizedModel, KgError> {
    let snapshot = read_snapshot_from_path(path)?;
    QuantizedModel::from_snapshot(&snapshot, precision)
}

/// Round-trip helper used in tests: save to memory and load back.
pub fn roundtrip(
    model: &dyn TrainableModel,
    kind: ModelKind,
) -> Result<Box<dyn TrainableModel>, KgError> {
    let mut buf = Vec::new();
    save_model(model, kind, &mut buf)?;
    load_model(&mut buf.as_slice())
}

/// Copy parameters between two [`EmbeddingTable`]s of identical shape.
pub fn copy_table(dst: &mut EmbeddingTable, src: &[f32]) -> Result<(), String> {
    if dst.as_slice().len() != src.len() {
        return Err(format!("table length {} != {}", dst.as_slice().len(), src.len()));
    }
    dst.as_mut_slice().copy_from_slice(src);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::build_model;
    use crate::model::KgcModel;
    use kg_core::{EntityId, RelationId};

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

    #[test]
    fn snapshot_header_fields() {
        let model = build_model(ModelKind::ComplEx, 7, 2, 8, 3);
        let mut buf = Vec::new();
        save_model(model.as_ref(), ModelKind::ComplEx, &mut buf).unwrap();
        let snap = read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(snap.kind, ModelKind::ComplEx);
        assert_eq!(snap.num_entities, 7);
        assert_eq!(snap.num_relations, 2);
        assert_eq!(snap.dim, 8);
        assert_eq!(snap.tables.len(), 2);
    }

    #[test]
    fn corrupted_input_is_rejected() {
        assert!(load_model(&mut &b"NOPE"[..]).is_err());
        let model = build_model(ModelKind::TransE, 5, 2, 8, 1);
        let mut buf = Vec::new();
        save_model(model.as_ref(), ModelKind::TransE, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(load_model(&mut buf.as_slice()).is_err());
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(load_model(&mut bad_magic.as_slice()).is_err());
    }

    /// A snapshot header (either format) declaring one table of `len`
    /// floats, followed by `payload_floats` actual ones.
    fn snapshot_bytes(format: u16, len: u64, payload_floats: usize) -> Vec<u8> {
        let mut raw = MAGIC.to_vec();
        raw.extend(format.to_le_bytes());
        raw.push(kind_tag(ModelKind::TransE));
        if format >= 2 {
            raw.push(Precision::F32.to_byte());
        }
        for field in [5u64, 2, 8] {
            raw.extend(field.to_le_bytes());
        }
        raw.push(1); // n_tables
        raw.extend(len.to_le_bytes());
        raw.extend(std::iter::repeat_n(0u8, payload_floats * 4));
        raw
    }

    fn rejection(raw: &[u8]) -> String {
        match read_snapshot(&mut &raw[..]) {
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
        assert!(read_snapshot(&mut snapshot_bytes(FORMAT, 4, 4).as_slice()).is_ok());
    }

    /// A v1 header is one byte shorter; the same checks apply behind it.
    #[test]
    fn v1_header_is_bounds_checked_like_v2() {
        let v1 = snapshot_bytes(FORMAT_V1, 5, 4);
        assert!(rejection(&v1).contains("truncated table payload"));
        assert!(rejection(&v1[..31]).contains("truncated header"));
        assert!(rejection(&v1[..32]).contains("truncated table header"));
        assert!(read_snapshot(&mut snapshot_bytes(FORMAT_V1, 4, 4).as_slice()).is_ok());
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
        let mut v2 = Vec::new();
        save_model(model.as_ref(), ModelKind::TransE, &mut v2).unwrap();
        // Rewrite the header down to format 1: patch the version word and
        // drop the precision-hint byte (offset 7: magic 4 + format 2 + kind 1).
        let mut v1 = v2.clone();
        v1[4] = 1;
        v1.remove(7);
        let snap = read_snapshot(&mut v1.as_slice()).unwrap();
        assert_eq!(snap.precision_hint, Precision::F32);
        let loaded = model_from_snapshot(&snap).unwrap();
        assert_eq!(
            model.score(EntityId(1), RelationId(0), EntityId(3)),
            loaded.score(EntityId(1), RelationId(0), EntityId(3))
        );
    }

    #[test]
    fn precision_hint_roundtrips_and_does_not_change_tables() {
        let model = build_model(ModelKind::ComplEx, 6, 2, 8, 2);
        let mut buf = Vec::new();
        save_model_with_hint(model.as_ref(), ModelKind::ComplEx, Precision::Int8, &mut buf)
            .unwrap();
        let snap = read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(snap.precision_hint, Precision::Int8);
        let loaded = model_from_snapshot(&snap).unwrap();
        assert_eq!(
            model.score(EntityId(0), RelationId(1), EntityId(5)),
            loaded.score(EntityId(0), RelationId(1), EntityId(5))
        );
        let mut bad_hint = buf.clone();
        bad_hint[7] = 99;
        assert!(read_snapshot(&mut bad_hint.as_slice()).is_err());
    }

    #[test]
    fn quantized_path_loader_respects_family_support() {
        let dir = std::env::temp_dir().join(format!("kgeval-ioq-{}", std::process::id()));
        let path = dir.join("m.kgev");
        let model = build_model(ModelKind::DistMult, 6, 2, 8, 11);
        save_model_to_path(model.as_ref(), ModelKind::DistMult, &path).unwrap();
        let quant = load_quantized_from_path(&path, Precision::Int8).unwrap();
        assert_eq!(quant.precision(), Precision::Int8);
        assert_eq!(quant.num_entities(), 6);
        let tucker = build_model(ModelKind::TuckEr, 6, 2, 8, 11);
        save_model_to_path(tucker.as_ref(), ModelKind::TuckEr, &path).unwrap();
        assert!(load_quantized_from_path(&path, Precision::Int8).is_err());
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
