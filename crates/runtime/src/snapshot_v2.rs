//! Snapshot format v2, the runtime's one snapshot format: compact
//! binary, versioned, length-prefixed.
//!
//! v2 stores the `SnapshotImage` content in raw little-endian binary —
//! 8 bytes per `f64` (its IEEE-754 bit pattern, so round-trips are
//! bit-exact by construction), 4 bytes per index — behind a
//! self-describing header. The full layout, byte by byte, is specified in
//! `docs/FLEET.md`; the shape is:
//!
//! ```text
//! magic   8 bytes   "OMCFSNAP"
//! version u32       2
//! section*          tag u8, len u64, payload[len]
//!   0x01 META       rho, routing, events, counters
//!   0x02 GRAPH      node positions, edge endpoints + capacities
//!   0x03 LENGTHS    per-edge length bit patterns
//!   0x04 LOADS      per-edge load bit patterns
//!   0x05 SESSIONS   the admission log with full tree embeddings
//!   0xFF END        len 0, terminator
//! ```
//!
//! Sections appear in exactly that order and every section is
//! length-prefixed, so a reader can skip what it does not understand in
//! a future *minor* revision and a truncated blob is detected at the
//! first frame whose declared length overruns the buffer. Restoring a
//! blob with the wrong magic or version fails with a descriptive
//! [`SnapshotError`] — never a panic and never a misparse.
//!
//! Decoding is structural only; the shared `SnapshotImage::assemble`
//! performs all semantic validation. The line-based v1 text format that
//! preceded v2 is no longer read.

use crate::binio::{ByteReader, ByteWriter, DecodeError};
use crate::runtime::Runtime;
use crate::snapshot::{HopImage, SessionImage, SnapshotError, SnapshotImage, SNAPSHOT_VERSION};
use omcf_core::solver::RoutingMode;
use omcf_telemetry::stats;

/// The 8-byte magic leading every v2 snapshot.
pub const SNAPSHOT_V2_MAGIC: &[u8; 8] = b"OMCFSNAP";

const TAG_META: u8 = 0x01;
const TAG_GRAPH: u8 = 0x02;
const TAG_LENGTHS: u8 = 0x03;
const TAG_LOADS: u8 = 0x04;
const TAG_SESSIONS: u8 = 0x05;
const TAG_END: u8 = 0xFF;

const ROUTING_FIXED_IP: u8 = 0;
const ROUTING_ARBITRARY: u8 = 1;

fn corrupt(e: DecodeError) -> SnapshotError {
    SnapshotError::CorruptBinary { offset: e.offset, what: e.what }
}

/// Appends one `tag | len | payload` frame.
fn section(out: &mut ByteWriter, tag: u8, payload: ByteWriter) {
    out.put_u8(tag);
    out.put_u64(payload.len() as u64);
    out.put_bytes(payload.as_slice());
}

/// Serializes a `SnapshotImage` to the v2 wire format. `pub(crate)` so
/// the fleet container can embed per-shard snapshots without re-capturing.
pub(crate) fn encode(image: &SnapshotImage) -> Vec<u8> {
    let mut out = ByteWriter::new();
    out.put_bytes(SNAPSHOT_V2_MAGIC);
    out.put_u32(SNAPSHOT_VERSION);

    let mut meta = ByteWriter::new();
    meta.put_f64_bits(image.rho);
    meta.put_u8(match image.routing {
        RoutingMode::FixedIp => ROUTING_FIXED_IP,
        RoutingMode::Arbitrary => ROUTING_ARBITRARY,
    });
    meta.put_u64(image.events);
    meta.put_u64(image.mst_ops);
    meta.put_u64(image.iterations);
    section(&mut out, TAG_META, meta);

    let mut graph = ByteWriter::new();
    graph.put_u32(image.nodes.len() as u32);
    graph.put_u32(image.edges.len() as u32);
    for &(x, y) in &image.nodes {
        graph.put_f64_bits(x);
        graph.put_f64_bits(y);
    }
    for &(u, v, cap) in &image.edges {
        graph.put_u32(u);
        graph.put_u32(v);
        graph.put_f64_bits(cap);
    }
    section(&mut out, TAG_GRAPH, graph);

    for (tag, words) in [(TAG_LENGTHS, &image.lengths), (TAG_LOADS, &image.loads)] {
        let mut body = ByteWriter::new();
        body.put_u32(words.len() as u32);
        for &w in words {
            body.put_f64_bits(w);
        }
        section(&mut out, tag, body);
    }

    let mut sessions = ByteWriter::new();
    sessions.put_u32(image.sessions.len() as u32);
    for s in &image.sessions {
        sessions.put_u8(u8::from(s.alive));
        sessions.put_f64_bits(s.demand);
        sessions.put_u32(s.members.len() as u32);
        for &m in &s.members {
            sessions.put_u32(m);
        }
        sessions.put_u32(s.hops.len() as u32);
        for h in &s.hops {
            sessions.put_u32(h.a);
            sessions.put_u32(h.b);
            sessions.put_u32(h.src);
            sessions.put_u32(h.dst);
            sessions.put_u32(h.edges.len() as u32);
            for &e in &h.edges {
                sessions.put_u32(e);
            }
        }
    }
    section(&mut out, TAG_SESSIONS, sessions);

    out.put_u8(TAG_END);
    out.put_u64(0);
    out.into_vec()
}

/// Reads the next `tag | len | payload` frame, checking the tag.
fn expect_section<'a>(
    r: &mut ByteReader<'a>,
    tag: u8,
    name: &str,
) -> Result<ByteReader<'a>, SnapshotError> {
    let start = r.pos();
    let got = r.u8("section tag").map_err(corrupt)?;
    if got != tag {
        return Err(SnapshotError::CorruptBinary {
            offset: start,
            what: format!("expected {name} section (tag {tag:#04x}), got tag {got:#04x}"),
        });
    }
    let len = r.u64("section length").map_err(corrupt)? as usize;
    let payload = r.take(len, name).map_err(corrupt)?;
    Ok(ByteReader::new(payload))
}

/// Decodes a v2 blob into the shared `SnapshotImage` (structural
/// decode only — semantic validation happens in `assemble`).
pub(crate) fn decode(bytes: &[u8]) -> Result<SnapshotImage, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(SNAPSHOT_V2_MAGIC.len(), "magic").map_err(corrupt)?;
    if magic != SNAPSHOT_V2_MAGIC {
        return Err(SnapshotError::UnsupportedVersion(format!("{magic:02x?}")));
    }
    let version = r.u32("version").map_err(corrupt)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(format!(
            "OMCFSNAP v{version} (this build reads v{SNAPSHOT_VERSION})"
        )));
    }

    let mut meta = expect_section(&mut r, TAG_META, "META")?;
    let rho = meta.f64_bits("rho").map_err(corrupt)?;
    let routing = match meta.u8("routing").map_err(corrupt)? {
        ROUTING_FIXED_IP => RoutingMode::FixedIp,
        ROUTING_ARBITRARY => RoutingMode::Arbitrary,
        other => {
            return Err(SnapshotError::CorruptBinary {
                offset: 0,
                what: format!("unknown routing code {other}"),
            })
        }
    };
    let events = meta.u64("events").map_err(corrupt)?;
    let mst_ops = meta.u64("mst_ops").map_err(corrupt)?;
    let iterations = meta.u64("iterations").map_err(corrupt)?;

    let mut graph = expect_section(&mut r, TAG_GRAPH, "GRAPH")?;
    let n = graph.u32("node count").map_err(corrupt)? as usize;
    let m = graph.u32("edge count").map_err(corrupt)? as usize;
    if n.saturating_mul(16).saturating_add(m.saturating_mul(16)) > graph.remaining() {
        return Err(SnapshotError::CorruptBinary {
            offset: 0,
            what: format!("implausible graph dimensions {n}x{m} for section size"),
        });
    }
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let x = graph.f64_bits("node x").map_err(corrupt)?;
        let y = graph.f64_bits("node y").map_err(corrupt)?;
        nodes.push((x, y));
    }
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = graph.u32("edge u").map_err(corrupt)?;
        let v = graph.u32("edge v").map_err(corrupt)?;
        let cap = graph.f64_bits("edge capacity").map_err(corrupt)?;
        edges.push((u, v, cap));
    }

    let mut read_words = |tag, name| -> Result<Vec<f64>, SnapshotError> {
        let mut body = expect_section(&mut r, tag, name)?;
        let count = body.counted(name, 8).map_err(corrupt)?;
        let mut words = Vec::with_capacity(count);
        for _ in 0..count {
            words.push(body.f64_bits(name).map_err(corrupt)?);
        }
        Ok(words)
    };
    let lengths = read_words(TAG_LENGTHS, "lengths")?;
    let loads = read_words(TAG_LOADS, "loads")?;

    let mut body = expect_section(&mut r, TAG_SESSIONS, "SESSIONS")?;
    let count = body.counted("session", 9).map_err(corrupt)?;
    let mut sessions = Vec::with_capacity(count);
    for _ in 0..count {
        let alive = match body.u8("alive flag").map_err(corrupt)? {
            0 => false,
            1 => true,
            other => {
                return Err(SnapshotError::CorruptBinary {
                    offset: 0,
                    what: format!("bad alive flag {other}"),
                })
            }
        };
        let demand = body.f64_bits("demand").map_err(corrupt)?;
        let k = body.counted("member", 4).map_err(corrupt)?;
        let mut members = Vec::with_capacity(k);
        for _ in 0..k {
            members.push(body.u32("member").map_err(corrupt)?);
        }
        let hop_count = body.counted("hop", 20).map_err(corrupt)?;
        let mut hops = Vec::with_capacity(hop_count);
        for _ in 0..hop_count {
            let a = body.u32("hop a").map_err(corrupt)?;
            let b = body.u32("hop b").map_err(corrupt)?;
            let src = body.u32("hop src").map_err(corrupt)?;
            let dst = body.u32("hop dst").map_err(corrupt)?;
            let ne = body.counted("path edge", 4).map_err(corrupt)?;
            let mut hop_edges = Vec::with_capacity(ne);
            for _ in 0..ne {
                hop_edges.push(body.u32("path edge").map_err(corrupt)?);
            }
            hops.push(HopImage { a, b, src, dst, edges: hop_edges });
        }
        sessions.push(SessionImage { alive, demand, members, hops });
    }

    let end_start = r.pos();
    let end_tag = r.u8("END tag").map_err(corrupt)?;
    let end_len = r.u64("END length").map_err(corrupt)?;
    if end_tag != TAG_END || end_len != 0 {
        return Err(SnapshotError::CorruptBinary {
            offset: end_start,
            what: format!("bad END frame (tag {end_tag:#04x}, len {end_len})"),
        });
    }

    Ok(SnapshotImage {
        rho,
        routing,
        events,
        mst_ops,
        iterations,
        nodes,
        edges,
        lengths,
        loads,
        sessions,
    })
}

impl Runtime {
    /// Serializes the full runtime state to the compact binary v2
    /// format. `snapshot_v2 → restore_v2` is bit-identical.
    #[must_use]
    pub fn snapshot_v2(&self) -> Vec<u8> {
        let _span = omcf_telemetry::span("runtime.snapshot");
        let t0 = omcf_telemetry::enabled().then(std::time::Instant::now);
        let bytes = encode(&SnapshotImage::capture(self));
        if let Some(t0) = t0 {
            stats::RUNTIME_SNAPSHOT_BYTES.observe(bytes.len() as u64);
            stats::RUNTIME_SNAPSHOT_US.observe_duration(t0.elapsed());
        }
        bytes
    }

    /// Restores a runtime from [`Self::snapshot_v2`] output. The restored
    /// state is bit-identical: lengths, loads, counters, admission log and
    /// the reconstructed flow store all match the snapshotted runtime.
    ///
    /// Corruption is an `Err`, never a panic: beyond the structural
    /// decode, every semantic invariant a flipped bit could violate is
    /// checked by the shared `SnapshotImage::assemble`, so a service
    /// restoring a persisted blob can handle a bad one instead of
    /// aborting.
    pub fn restore_v2(bytes: &[u8]) -> Result<Runtime, SnapshotError> {
        let image = decode(bytes)?;
        image.assemble().map_err(|what| SnapshotError::CorruptBinary { offset: 0, what })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use omcf_overlay::Session;
    use omcf_topology::{canned, NodeId};

    fn populated_runtime() -> Runtime {
        let g = canned::grid(4, 4, 10.0);
        let mut rt = Runtime::new(g, RuntimeConfig::new(25.0, RoutingMode::FixedIp));
        let a = rt.join(Session::new(vec![NodeId(0), NodeId(15)], 1.0));
        let _b = rt.join(Session::new(vec![NodeId(3), NodeId(12), NodeId(6)], 2.0));
        let _ = rt.leave(a);
        let _c = rt.join(Session::new(vec![NodeId(1), NodeId(14)], 1.0));
        rt
    }

    #[test]
    fn v2_roundtrip_is_bit_identical() {
        let rt = populated_runtime();
        let v2 = rt.snapshot_v2();
        assert_eq!(&v2[..SNAPSHOT_V2_MAGIC.len()], SNAPSHOT_V2_MAGIC);
        let restored = Runtime::restore_v2(&v2).expect("restore v2");
        assert_eq!(restored.snapshot_v2(), v2, "v2 of a restore re-serializes identically");
        assert_eq!(restored.live_count(), rt.live_count());
        assert_eq!(restored.admitted().len(), rt.admitted().len());
        assert_eq!(restored.events_processed(), rt.events_processed());
        assert_eq!(restored.mst_ops(), rt.mst_ops());
        for (a, b) in restored.lengths().iter().zip(rt.lengths()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in restored.load().iter().zip(rt.load()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let (ra, rb) = (restored.saturating_rates(), rt.saturating_rates());
        assert_eq!(ra.len(), rb.len());
        for ((ia, va), (ib, vb)) in ra.iter().zip(&rb) {
            assert_eq!(ia, ib);
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn wrong_version_is_descriptive() {
        let rt = populated_runtime();
        let mut v2 = rt.snapshot_v2();
        v2[8] = 99; // version word LE low byte
        let err = Runtime::restore_v2(&v2).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(_)), "{err}");
        assert!(err.to_string().contains("v99"), "{err}");
        for garbage in [&b"not a snapshot"[..], b"omcf-runtime-snapshot v1\n"] {
            let err = Runtime::restore_v2(garbage).unwrap_err();
            assert!(matches!(err, SnapshotError::UnsupportedVersion(_)), "{err}");
        }
    }

    #[test]
    fn truncation_anywhere_is_an_error_never_a_panic() {
        let rt = populated_runtime();
        let v2 = rt.snapshot_v2();
        for cut in 0..v2.len() {
            let err = Runtime::restore_v2(&v2[..cut]).expect_err("truncated must fail");
            let msg = err.to_string();
            assert!(!msg.is_empty());
        }
    }

    /// Corruption that still decodes must come back as a `SnapshotError`,
    /// never a downstream panic or abort: each mutation breaks one
    /// invariant `SnapshotImage::assemble` checks.
    #[test]
    fn semantically_corrupt_snapshots_return_errors_not_panics() {
        let image = SnapshotImage::capture(&populated_runtime());
        type Mutation = fn(&mut SnapshotImage);
        let mutations: [(&str, Mutation); 9] = [
            ("zero rho", |im| im.rho = 0.0),
            ("zero length word", |im| im.lengths[0] = 0.0),
            ("negative load word", |im| im.loads[0] = -1.0),
            ("zero capacity", |im| im.edges[0].2 = 0.0),
            ("self-loop edge", |im| im.edges[0].1 = im.edges[0].0),
            ("zero demand", |im| im.sessions[0].demand = 0.0),
            ("member out of range", |im| im.sessions[0].members[0] = 4096),
            ("out-of-range hop edge", |im| im.sessions[0].hops[0].edges[0] = 9999),
            ("disconnected hop walk", |im| {
                // The corner-to-corner hop's first path edge replaced by
                // its last one, which touches the far corner, not the start.
                let edges = &mut im.sessions[0].hops[0].edges;
                edges[0] = *edges.last().expect("nonempty path");
            }),
        ];
        for (what, mutate) in mutations {
            let mut bad = image.clone();
            mutate(&mut bad);
            let err = Runtime::restore_v2(&encode(&bad)).expect_err(what);
            assert!(matches!(err, SnapshotError::CorruptBinary { .. }), "{what}: {err}");
        }
    }
}
