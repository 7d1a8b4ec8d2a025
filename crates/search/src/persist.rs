//! Record codecs for the intra-operator sweep caches: the three optimizer
//! maps of [`DataflowCache`](crate::cache::DataflowCache), which persist
//! in `dataflow.cache` through the generic [`fusecu_dataflow::persist`]
//! save and load. See the format notes there for the fingerprint and
//! invalidation rules; the sweep caches are stamped with the base
//! fingerprint, whose behavioral cost-model digest already covers
//! everything a sweep entry's value depends on.

use fusecu_dataflow::persist::{
    decode_dataflow, decode_mm, decode_model, encode_dataflow, encode_mm, encode_model, Codec,
    RecordReader,
};
use fusecu_dataflow::Dataflow;

use crate::cache::SweepKey;
use crate::exhaustive::SearchResult;

/// Records of the principle map.
pub const PRINCIPLE_CODEC: Codec<SweepKey, Option<Dataflow>> = Codec {
    encode: encode_principle,
    decode: decode_principle,
};

/// Records of the exhaustive and genetic maps.
pub const SEARCH_CODEC: Codec<SweepKey, Option<SearchResult>> = Codec {
    encode: encode_search,
    decode: decode_search,
};

fn encode_principle(key: &SweepKey, value: &Option<Dataflow>) -> Vec<u64> {
    let (mm, bs, model) = key;
    let mut out = Vec::with_capacity(15);
    encode_mm(*mm, &mut out);
    out.push(*bs);
    encode_model(model, &mut out);
    match value {
        None => out.push(0),
        Some(df) => {
            out.push(1);
            encode_dataflow(df, &mut out);
        }
    }
    out
}

fn encode_search(key: &SweepKey, value: &Option<SearchResult>) -> Vec<u64> {
    let (mm, bs, model) = key;
    let mut out = Vec::with_capacity(16);
    encode_mm(*mm, &mut out);
    out.push(*bs);
    encode_model(model, &mut out);
    match value {
        None => out.push(0),
        Some(res) => {
            out.push(1);
            encode_dataflow(&res.best(), &mut out);
            out.push(res.evaluations());
        }
    }
    out
}

/// Decodes the shared `(mm, bs, model)` key prefix.
fn decode_key(r: &mut RecordReader<'_>) -> Option<SweepKey> {
    let mm = decode_mm(r)?;
    let bs = r.u64()?;
    let model = decode_model(r)?;
    Some((mm, bs, model))
}

/// Validates that a decoded dataflow is a plausible answer for its key:
/// same shape, and within the buffer budget it claims to satisfy.
fn valid_for_key(df: &Dataflow, key: &SweepKey) -> bool {
    df.mm() == key.0 && df.buffer_elems() <= key.1
}

type PrincipleEntry = (SweepKey, Option<Dataflow>);
type SearchEntry = (SweepKey, Option<SearchResult>);

fn decode_principle(record: &[u64]) -> Option<PrincipleEntry> {
    let mut r = RecordReader::new(record);
    let key = decode_key(&mut r)?;
    let value = if r.bool()? {
        let df = decode_dataflow(&key.2, &mut r)?;
        if !valid_for_key(&df, &key) {
            return None;
        }
        Some(df)
    } else {
        None
    };
    r.finish()?;
    Some((key, value))
}

fn decode_search(record: &[u64]) -> Option<SearchEntry> {
    let mut r = RecordReader::new(record);
    let key = decode_key(&mut r)?;
    let value = if r.bool()? {
        let df = decode_dataflow(&key.2, &mut r)?;
        if !valid_for_key(&df, &key) {
            return None;
        }
        let evaluations = r.u64()?;
        Some(SearchResult::new(df, evaluations))
    } else {
        None
    };
    r.finish()?;
    Some((key, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusecu_dataflow::CostModel;
    use fusecu_ir::MatMul;

    /// The record layout of one fixed entry of each section, token by
    /// token: files written by earlier builds must keep loading.
    #[test]
    fn record_layouts_are_pinned() {
        use fusecu_dataflow::{LoopNest, Tiling};
        use fusecu_ir::MmDim;
        let model = CostModel::read_write();
        let mm = MatMul::new(64, 32, 48);
        let key = (mm, 4_096u64, model);
        let df = model.dataflow(
            mm,
            LoopNest::new([MmDim::K, MmDim::M, MmDim::L], Tiling::new(8, 32, 6)),
        );
        let principle = (PRINCIPLE_CODEC.encode)(&key, &Some(df));
        // key: m, k, l, bs, model (read-write); tag; dataflow: m, k, l,
        // loop order (K, M, L), tiles (M, K, L).
        assert_eq!(principle, [64, 32, 48, 4096, 1, 1, 64, 32, 48, 1, 0, 2, 8, 32, 6]);
        assert_eq!((PRINCIPLE_CODEC.decode)(&principle), Some((key, Some(df))));
        let searched = Some(SearchResult::new(df, 1_234));
        let search = (SEARCH_CODEC.encode)(&key, &searched);
        // The same, then the evaluation count.
        assert_eq!(search, [64, 32, 48, 4096, 1, 1, 64, 32, 48, 1, 0, 2, 8, 32, 6, 1234]);
        assert_eq!((SEARCH_CODEC.decode)(&search), Some((key, searched)));
    }

    #[test]
    fn search_entry_round_trips_with_evaluations() {
        let model = CostModel::paper();
        let mm = MatMul::new(96, 48, 64);
        let key = (mm, 4_096u64, model);
        let res = crate::ExhaustiveSearch::new(model).try_optimize(mm, 4_096);
        let rec = encode_search(&key, &res);
        let (back_key, back) = decode_search(&rec).unwrap();
        assert_eq!(back_key, key);
        assert_eq!(back, res);
        // Infeasible entries round-trip as explicit `None`s.
        let none_key = (MatMul::new(4, 4, 4), 2u64, model);
        let rec = encode_search(&none_key, &None);
        assert_eq!(decode_search(&rec).unwrap(), (none_key, None));
    }

    #[test]
    fn entries_that_violate_their_key_are_rejected() {
        let model = CostModel::paper();
        let mm = MatMul::new(96, 48, 64);
        let res = crate::ExhaustiveSearch::new(model).try_optimize(mm, 4_096);
        let mut rec = encode_search(&(mm, 4_096, model), &res);
        // Shrink the claimed buffer below the stored dataflow's footprint.
        rec[3] = 1;
        assert!(decode_search(&rec).is_none());
    }
}
