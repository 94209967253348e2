//! Property test: a [`Cache`] behaves exactly like a textbook LRU
//! set-associative cache — same victims, same states, same occupancy —
//! whichever set store backs it.

use cord_sim::cache::{Cache, Mesi, Victim};
use cord_sim::config::CacheGeometry;
use cord_trace::types::LineAddr;
use proptest::prelude::*;
use std::collections::HashMap;

/// The reference: each set is a list of `(line, state, last use)`, and
/// a full set evicts its least recently used line.
struct Model {
    sets: HashMap<u64, Vec<(LineAddr, Mesi, u64)>>,
    num_sets: u64,
    ways: usize,
    clock: u64,
}

impl Model {
    fn new(g: CacheGeometry) -> Self {
        Model {
            sets: HashMap::new(),
            num_sets: g.num_sets(),
            ways: g.ways as usize,
            clock: 0,
        }
    }

    fn set(&mut self, line: LineAddr) -> &mut Vec<(LineAddr, Mesi, u64)> {
        self.sets.entry(line.0 % self.num_sets).or_default()
    }

    fn find(&mut self, line: LineAddr) -> Option<&mut (LineAddr, Mesi, u64)> {
        self.set(line).iter_mut().find(|e| e.0 == line)
    }

    fn probe(&mut self, line: LineAddr) -> Option<Mesi> {
        self.find(line).map(|e| e.1)
    }

    fn touch(&mut self, line: LineAddr) -> Option<Mesi> {
        self.clock += 1;
        let now = self.clock;
        let e = self.find(line)?;
        e.2 = now;
        Some(e.1)
    }

    fn insert(&mut self, line: LineAddr, state: Mesi) -> Option<Victim> {
        self.clock += 1;
        let (now, ways) = (self.clock, self.ways);
        let set = self.set(line);
        let victim = (set.len() == ways).then(|| {
            let oldest = (0..set.len()).min_by_key(|&i| set[i].2).expect("full set");
            let (line, state, _) = set.remove(oldest);
            Victim { line, state }
        });
        set.push((line, state, now));
        victim
    }

    fn remove(&mut self, line: LineAddr) -> Option<Mesi> {
        let set = self.set(line);
        let pos = set.iter().position(|e| e.0 == line)?;
        Some(set.remove(pos).1)
    }

    fn occupancy(&self) -> usize {
        self.sets.values().map(Vec::len).sum()
    }
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Insert,
    TouchProbe,
    Touch,
    SetState,
    Remove,
}

fn state_of(i: u8) -> Mesi {
    [Mesi::Modified, Mesi::Exclusive, Mesi::Shared][usize::from(i % 3)]
}

/// Operations on lines that crowd a few sets with twice as many lines
/// as they have ways, so evictions are frequent and most touches hit.
/// Inserts are drawn most often so sets fill up.
fn ops() -> impl Strategy<Value = Vec<(CacheOp, u64, u64, u8)>> {
    let op = (0u8..8).prop_map(|k| match k {
        0..=2 => CacheOp::Insert,
        3 | 4 => CacheOp::TouchProbe,
        5 => CacheOp::Touch,
        6 => CacheOp::SetState,
        _ => CacheOp::Remove,
    });
    prop::collection::vec((op, 0u64..3, any::<u64>(), any::<u8>()), 0..300)
}

fn check(g: CacheGeometry, ops: &[(CacheOp, u64, u64, u8)]) {
    let mut cache = Cache::new(g);
    let mut model = Model::new(g);
    for &(op, set, tag, s) in ops {
        let line = LineAddr(set + tag % (2 * u64::from(g.ways)) * g.num_sets());
        let present = model.probe(line).is_some();
        match op {
            // Inserting a present line is a caller bug the cache
            // rejects; the model covers only legal sequences.
            CacheOp::Insert if !present => {
                assert_eq!(
                    cache.insert(line, state_of(s)),
                    model.insert(line, state_of(s))
                );
            }
            CacheOp::Insert => {}
            CacheOp::TouchProbe => {
                let got = cache.touch_probe(line);
                // A probe miss leaves the LRU clock alone.
                let want = if present { model.touch(line) } else { None };
                assert_eq!(got, want);
            }
            CacheOp::Touch if present => {
                cache.touch(line);
                model.touch(line);
            }
            CacheOp::SetState if present => {
                cache.set_state(line, state_of(s));
                model.find(line).expect("present").1 = state_of(s);
            }
            CacheOp::Touch | CacheOp::SetState => {}
            CacheOp::Remove => assert_eq!(cache.remove(line), model.remove(line)),
        }
        assert_eq!(cache.probe(line), model.probe(line));
        assert_eq!(cache.occupancy(), model.occupancy());
    }
    let mut got: Vec<_> = cache.lines().map(|(l, s)| (l.0, s)).collect();
    let mut want: Vec<_> = model
        .sets
        .values()
        .flatten()
        .map(|&(l, s, _)| (l.0, s))
        .collect();
    got.sort_by_key(|e| e.0);
    want.sort_by_key(|e| e.0);
    assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_cache_matches_reference_lru(ops in ops()) {
        // 8 KiB, 4-way: the paper's L1, stored as flat slot arrays.
        check(CacheGeometry::new(8 * 1024, 4), &ops);
    }

    #[test]
    fn mapped_cache_matches_reference_lru(ops in ops()) {
        // 256 MiB, 16-way: an "infinite" L2, stored behind the slot map.
        check(CacheGeometry::new(256 * 1024 * 1024, 16), &ops);
    }
}
