//! The `fleet-steady` event stream: balanced joins and leaves that hold
//! each shard's live population inside a band, plus a thin share of link
//! capacity changes.

use omcf_numerics::{Rng64, Xoshiro256pp};
use omcf_overlay::Session;
use omcf_runtime::{Event, ShardId};
use omcf_topology::{EdgeId, NodeId};

/// Shape of a generated stream.
#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    /// Total events, over all shards.
    pub events: usize,
    /// Members per joining session.
    pub session_size: usize,
    /// After warm-up, each shard's live population stays in
    /// `live_lo..=live_hi`; up to `live_lo` only joins are drawn, at
    /// `live_hi` only leaves, and in between each is equally likely.
    pub live_lo: usize,
    /// Upper bound of the live band.
    pub live_hi: usize,
    /// Share of events that are capacity changes.
    pub capacity_share: f64,
}

/// Per shard: node and edge counts of its topology.
#[derive(Clone, Copy, Debug)]
pub struct ShardShape {
    pub nodes: usize,
    pub edges: usize,
}

/// A capacity change scales one edge by ½ or 2, and an edge never drifts
/// more than one halving or doubling from its original capacity.
const MAX_CAPACITY_STEPS: i8 = 1;

/// Generates the stream. Event `i` goes to shard `i % shapes.len()`.
/// `Leave(j)` names the `j`-th join of that shard (0-based), which is live
/// at that point of the stream.
pub fn generate(spec: &StreamSpec, shapes: &[ShardShape], seed: u64) -> Vec<(ShardId, Event)> {
    assert!(!shapes.is_empty(), "a stream needs at least one shard");
    assert!(spec.live_lo >= 1 && spec.live_lo < spec.live_hi, "live band too narrow");
    let mut rng = Xoshiro256pp::new(seed);
    let mut joins = vec![0usize; shapes.len()];
    let mut live: Vec<Vec<usize>> = vec![Vec::new(); shapes.len()];
    let mut steps: Vec<Vec<i8>> = shapes.iter().map(|s| vec![0; s.edges]).collect();
    let mut out = Vec::with_capacity(spec.events);
    for i in 0..spec.events {
        let s = i % shapes.len();
        let shape = shapes[s];
        let event = if rng.next_f64() < spec.capacity_share {
            let e = rng.index(shape.edges);
            let step = &mut steps[s][e];
            let halve = match *step {
                MAX_CAPACITY_STEPS => true,
                x if x == -MAX_CAPACITY_STEPS => false,
                _ => rng.next_u64() & 1 == 0,
            };
            *step += if halve { -1 } else { 1 };
            Event::CapacityChange(vec![(EdgeId(e as u32), if halve { 0.5 } else { 2.0 })])
        } else {
            let n = live[s].len();
            let join = n <= spec.live_lo || (n < spec.live_hi && rng.next_u64() & 1 == 0);
            if join {
                live[s].push(joins[s]);
                joins[s] += 1;
                let members = rng
                    .sample_indices(shape.nodes, spec.session_size)
                    .into_iter()
                    .map(|v| NodeId(v as u32))
                    .collect();
                Event::Join(Session::new(members, 1.0))
            } else {
                let k = rng.index(n);
                Event::Leave(live[s].swap_remove(k))
            }
        };
        out.push((ShardId(s as u32), event));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const SPEC: StreamSpec = StreamSpec {
        events: 6_000,
        session_size: 4,
        live_lo: 24,
        live_hi: 40,
        capacity_share: 0.01,
    };

    fn shapes() -> Vec<ShardShape> {
        vec![ShardShape { nodes: 100, edges: 180 }, ShardShape { nodes: 60, edges: 90 }]
    }

    /// Replays the stream against a model of each shard's live set.
    fn check(spec: &StreamSpec, shapes: &[ShardShape], seed: u64) {
        let stream = generate(spec, shapes, seed);
        assert_eq!(stream.len(), spec.events);
        let mut joins = vec![0usize; shapes.len()];
        let mut live: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); shapes.len()];
        let mut warm = vec![false; shapes.len()];
        let mut capacity = 0usize;
        for (i, (shard, ev)) in stream.iter().enumerate() {
            let s = shard.0 as usize;
            assert_eq!(s, i % shapes.len(), "round-robin shard order");
            match ev {
                Event::Join(session) => {
                    assert_eq!(session.size(), spec.session_size);
                    let distinct: BTreeSet<_> = session.members.iter().collect();
                    assert_eq!(distinct.len(), spec.session_size, "members must be distinct");
                    assert!(session.members.iter().all(|v| v.idx() < shapes[s].nodes));
                    live[s].insert(joins[s]);
                    joins[s] += 1;
                }
                Event::Leave(j) => {
                    assert!(live[s].remove(j), "seed {seed}: Leave({j}) on shard {s} is not live");
                }
                Event::CapacityChange(factors) => {
                    assert_eq!(factors.len(), 1);
                    let (e, f) = factors[0];
                    assert!(e.idx() < shapes[s].edges);
                    assert!(f == 0.5 || f == 2.0);
                    capacity += 1;
                }
                Event::Reoptimize => panic!("the stream never checkpoints"),
            }
            let n = live[s].len();
            warm[s] |= n >= spec.live_lo;
            assert!(n <= spec.live_hi, "seed {seed}: shard {s} holds {n} > {}", spec.live_hi);
            if warm[s] {
                assert!(n >= spec.live_lo, "seed {seed}: shard {s} fell to {n}");
            }
        }
        assert!(warm.iter().all(|&w| w), "every shard must reach the band");
        let share = capacity as f64 / spec.events as f64;
        assert!(share < 4.0 * spec.capacity_share, "capacity share {share}");
    }

    #[test]
    fn leaves_name_live_joins_and_population_stays_in_band() {
        for seed in 0..40 {
            check(&SPEC, &shapes(), seed);
        }
        check(&SPEC, &shapes(), u64::MAX);
    }

    #[test]
    fn narrow_band_and_single_shard() {
        let spec = StreamSpec { live_lo: 1, live_hi: 2, capacity_share: 0.2, ..SPEC };
        for seed in 0..10 {
            check(&spec, &shapes()[..1], seed);
        }
    }

    #[test]
    fn capacity_factors_stay_within_one_step() {
        let spec = StreamSpec { capacity_share: 0.5, ..SPEC };
        let shape = [ShardShape { nodes: 10, edges: 3 }];
        let mut steps = [0i32; 3];
        for (_, ev) in generate(&spec, &shape, 9) {
            if let Event::CapacityChange(f) = ev {
                steps[f[0].0.idx()] += if f[0].1 < 1.0 { -1 } else { 1 };
                assert!(steps.iter().all(|s| s.abs() <= 1), "{steps:?}");
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(generate(&SPEC, &shapes(), 7), generate(&SPEC, &shapes(), 7));
        assert_ne!(generate(&SPEC, &shapes(), 7), generate(&SPEC, &shapes(), 8));
    }
}
