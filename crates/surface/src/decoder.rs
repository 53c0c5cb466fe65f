//! Union-find decoder (Delfosse–Nickerson style) for code-capacity noise.
//!
//! Decodes the X errors of code-capacity noise from their Z-check
//! syndromes, the failures the logical-`X̄` verdict counts: flipped checks
//! seed clusters that grow by half-edges on the check
//! graph; a cluster freezes once its defect parity is even or it touches
//! a boundary; merged odd clusters keep growing. A spanning-tree peeling
//! pass then extracts the correction inside each frozen cluster.
//!
//! Growth is two-sided: a round adds one half to an edge for each
//! distinct live cluster with an endpoint on it, capped at full, so an
//! edge between two live clusters fills in one round, a round before the
//! edges on their far sides. With that rule the decoder corrects every
//! error of weight ≤ `(d − 1)/2` (Delfosse and Nickerson, "Almost-linear
//! time decoding algorithm for topological codes", Quantum 5, 595, 2021):
//! the unit tests check it exhaustively at `d` ≤ 7, up to weight 4 at
//! `d = 9`, and on column patterns at `d = 23`, and show a failing
//! pattern one error heavier. The Monte-Carlo estimators rely on it:
//! the rare-event ladder settles lighter trials without decoding, and a
//! trial of far-apart lone errors settles as no failure (see
//! [`crate::montecarlo`]).
//!
//! # The allocation-free engine
//!
//! The Monte-Carlo hot loop calls the decoder once per non-trivial trial,
//! so the engine is split into a build-once [`DecodingGraph`] (CSR
//! adjacency, no hashing) and a reusable [`DecoderScratch`] arena:
//! [`decode_into`] performs **zero heap allocations per call**, growing
//! clusters from an active-frontier worklist that only visits the
//! boundary edges of live clusters instead of rescanning every edge each
//! round. Its per-call work is O(cluster), not O(lattice): the arena
//! remembers which vertices joined a cluster and which edges grew, and
//! the next call resets only those (plus the boundary vertex); peeling
//! reads its roots and leaves off the same cluster set. At `d = 23` a
//! sampled syndrome touches a handful of the 264 checks, so the per-call
//! cost follows the defects, not the lattice. The Monte-Carlo verdict
//! path runs its two stages, `grow` and `peel`, itself and often
//! skips the peel (see [`crate::montecarlo`]). [`decode_reference`]
//! preserves the original full-edge-rescan implementation as the oracle
//! the fast engine is tested against — both produce identical
//! corrections for every syndrome.

use crate::lattice::{Lattice, PackedLattice};

/// A decoding graph: vertices are checks (+ one boundary vertex), edges
/// are data qubits.
///
/// Adjacency is stored CSR-style (a flat offset table plus a flat
/// edge-id array), built from a `Vec`-indexed qubit→check table:
/// construction touches no hash map, so the edge and adjacency order is
/// deterministic by construction, not by hasher state. Vertex and edge
/// ids fit in `u16` (the graph of a lattice of at most 2¹⁶ data qubits),
/// so the growth stage walks `u16` copies of the endpoints and the
/// adjacency.
#[derive(Debug, Clone)]
pub struct DecodingGraph {
    /// Number of check vertices (boundary vertex is index `checks`).
    checks: usize,
    /// `edges[e] = (u, v, data_qubit)`.
    edges: Vec<(usize, usize, usize)>,
    /// `ends[e] = [u, v]`: the endpoints of `edges[e]` as `u16`.
    ends: Vec<[u16; 2]>,
    /// CSR offsets: vertex `v`'s incident edge ids live at
    /// `adj_edge[adj_off[v]..adj_off[v + 1]]`.
    adj_off: Vec<u32>,
    /// CSR payload: incident edge ids, grouped per vertex in ascending
    /// edge-id order.
    adj_edge: Vec<u16>,
}

/// The virtual boundary vertex id of a graph with `n` checks is `n`.
impl DecodingGraph {
    /// Builds the graph of the lattice's Z checks, which decodes X
    /// errors.
    ///
    /// # Panics
    ///
    /// Panics if the lattice has more than 2¹⁶ data qubits: vertex and
    /// edge ids are `u16`.
    pub fn new(lattice: &Lattice) -> Self {
        let checks = &lattice.z_checks;
        let n = checks.len();
        let n_qubits = lattice.data_qubits();
        assert!(
            n_qubits <= 1 << 16,
            "decoder ids are u16: at most 2^16 data qubits, got {n_qubits}"
        );
        // Vec-indexed qubit → (up to two) touching checks: same-type
        // checks tile the lattice, so two is the structural maximum.
        let mut touch = vec![[usize::MAX; 2]; n_qubits];
        let mut touch_len = vec![0u8; n_qubits];
        for (i, c) in checks.iter().enumerate() {
            for &q in &c.support {
                assert!(touch_len[q] < 2, "data qubit {q} touches more than two same-type checks");
                touch[q][touch_len[q] as usize] = i;
                touch_len[q] += 1;
            }
        }
        let mut edges = Vec::with_capacity(n_qubits);
        for q in 0..n_qubits {
            match touch_len[q] {
                2 => edges.push((touch[q][0], touch[q][1], q)),
                1 => edges.push((touch[q][0], n, q)),
                // A qubit untouched by this check family still ends a
                // chain on both boundaries — connecting the boundary to
                // itself is useless; such qubits exist only for d=2
                // corners.
                _ => {}
            }
        }
        // CSR adjacency: count degrees, prefix-sum, fill. Filling in
        // ascending edge order reproduces the per-vertex edge order the
        // old `Vec<Vec<usize>>` build produced.
        let mut adj_off = vec![0u32; n + 2];
        for &(u, v, _) in &edges {
            adj_off[u + 1] += 1;
            adj_off[v + 1] += 1;
        }
        for i in 1..adj_off.len() {
            adj_off[i] += adj_off[i - 1];
        }
        let mut cursor = adj_off.clone();
        let mut adj_edge = vec![0u16; 2 * edges.len()];
        for (e, &(u, v, _)) in edges.iter().enumerate() {
            for w in [u, v] {
                adj_edge[cursor[w] as usize] = e as u16;
                cursor[w] += 1;
            }
        }
        let ends = edges.iter().map(|&(u, v, _)| [u as u16, v as u16]).collect();
        DecodingGraph { checks: n, edges, ends, adj_off, adj_edge }
    }

    /// The boundary vertex id.
    pub fn boundary(&self) -> usize {
        self.checks
    }

    /// Number of check vertices (syndrome bits this graph decodes).
    pub fn check_count(&self) -> usize {
        self.checks
    }

    /// Number of edges (data qubits participating in this family).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `u64` words in a packed syndrome for this graph.
    pub fn syndrome_words(&self) -> usize {
        self.checks.div_ceil(64).max(1)
    }

    /// The edge ids incident to vertex `v`.
    #[inline]
    fn adj(&self, v: usize) -> &[u16] {
        &self.adj_edge[self.adj_off[v] as usize..self.adj_off[v + 1] as usize]
    }
}

/// Frontier and peeling work counters accumulated in a decoder arena,
/// flushed to `qisim-obs` by both Monte-Carlo estimators (one registry
/// update per estimate, never per trial), with the two counters of the
/// split verdict that decodes only a trial's interacting errors and the
/// rare ladder's count of trials too light to fail (see
/// [`crate::montecarlo`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Decode calls that reached the growth stage.
    pub decodes: u64,
    /// Cluster-growth rounds executed.
    pub rounds: u64,
    /// Edge halves grown: one per live cluster that grew an edge in a
    /// round.
    pub edges_grown: u64,
    /// Decodes whose failure verdict was read off a row no fully grown
    /// edge touches, so the spanning-tree peel never ran (the rest of
    /// `decodes` peeled).
    pub peels_skipped: u64,
    /// Errors of decoded trials settled as singles, which cannot fail,
    /// instead of through the decoder.
    pub singles_settled: u64,
    /// Split verdicts a guard rejected: the trial decoded whole after
    /// its remainder had decoded (two decodes for one trial).
    pub split_fallbacks: u64,
    /// Rare-ladder trials with at least one and fewer than `⌈d/2⌉`
    /// errors, settled as no failure without a decode: the decoder
    /// corrects every error that light.
    pub light_trials: u64,
}

impl DecodeStats {
    /// Adds another arena's counters to these.
    pub(crate) fn merge(&mut self, other: DecodeStats) {
        self.decodes += other.decodes;
        self.rounds += other.rounds;
        self.edges_grown += other.edges_grown;
        self.peels_skipped += other.peels_skipped;
        self.singles_settled += other.singles_settled;
        self.split_fallbacks += other.split_fallbacks;
        self.light_trials += other.light_trials;
    }
}

/// [`DecoderScratch::flags`] bit: the cluster rooted here holds an odd
/// number of defects (meaningful at roots).
const ODD: u8 = 1;
/// [`DecoderScratch::flags`] bit: the cluster rooted here touches the
/// boundary (meaningful at roots).
const BOUNDARY: u8 = 2;

/// Reusable decoder arena: every buffer [`decode_into`] needs, sized
/// once for a [`DecodingGraph`] and reused across trials so the hot
/// loop performs no heap allocation.
///
/// # Examples
///
/// ```
/// use qisim_surface::decoder::{decode_into, DecoderScratch, DecodingGraph};
/// use qisim_surface::Lattice;
///
/// let lattice = Lattice::new(5);
/// let graph = DecodingGraph::new(&lattice);
/// let mut scratch = DecoderScratch::new(&graph);
/// let mut syndrome = vec![0u64; graph.syndrome_words()];
/// syndrome[0] = 0b11; // two adjacent defects
/// let correction = decode_into(&graph, &syndrome, &mut scratch);
/// assert!(!correction.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct DecoderScratch {
    // Union-find over `checks + 1` vertices.
    parent: Vec<u16>,
    /// [`ODD`] and [`BOUNDARY`] bits per vertex.
    flags: Vec<u8>,
    /// Clusters that are odd and touch no boundary: growth runs while
    /// any is left.
    live: usize,
    // Growth stage.
    edge_growth: Vec<u8>,
    /// Edges whose growth left 0 in the last call, recorded as it
    /// happens: the only edges with growth, tree or removal state to
    /// reset.
    grown_edges: Vec<u16>,
    /// Bitset over all `checks + 1` vertices (boundary included): the
    /// vertices absorbed into any cluster, and (with the boundary) the
    /// only vertices whose state the next call resets.
    in_cluster: Vec<u64>,
    /// Non-boundary cluster vertices that may still have an incident
    /// edge to grow, in absorption order: the growth worklist. A vertex
    /// leaves once every incident edge is fully grown.
    frontier: Vec<u16>,
    /// `edge_seen[e]`: the last growth round that grew edge `e`.
    edge_seen: Vec<u64>,
    /// `edge_claim[e]`: the root of the live cluster that grew edge `e`
    /// first in round `edge_seen[e]`; a second live cluster grows it
    /// too.
    edge_claim: Vec<u16>,
    round_stamp: u64,
    full_edges: Vec<u16>,
    // Peeling stage.
    defect: Vec<bool>,
    visited: Vec<bool>,
    in_tree: Vec<bool>,
    /// Live spanning-forest edges incident to each vertex.
    degree: Vec<usize>,
    leaves: Vec<usize>,
    removed: Vec<bool>,
    stack: Vec<usize>,
    correction: Vec<usize>,
    pub(crate) stats: DecodeStats,
}

impl DecoderScratch {
    /// Allocates an arena sized for `graph`.
    pub fn new(graph: &DecodingGraph) -> Self {
        let n = graph.checks + 1;
        let e = graph.edges.len();
        let mut flags = vec![0; n];
        flags[graph.boundary()] = BOUNDARY;
        DecoderScratch {
            parent: (0..n).map(|v| v as u16).collect(),
            flags,
            live: 0,
            edge_growth: vec![0; e],
            grown_edges: Vec::with_capacity(e),
            in_cluster: vec![0; n.div_ceil(64)],
            frontier: Vec::with_capacity(n),
            edge_seen: vec![0; e],
            edge_claim: vec![0; e],
            round_stamp: 0,
            full_edges: Vec::with_capacity(e),
            defect: vec![false; n],
            visited: vec![false; n],
            in_tree: vec![false; e],
            degree: vec![0; n],
            leaves: Vec::with_capacity(n),
            removed: vec![false; e],
            stack: Vec::with_capacity(n),
            correction: Vec::with_capacity(e),
            stats: DecodeStats::default(),
        }
    }

    /// Work counters accumulated since construction (or the last
    /// [`Self::take_stats`]).
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// Returns and resets the accumulated work counters.
    pub fn take_stats(&mut self) -> DecodeStats {
        std::mem::take(&mut self.stats)
    }

    /// The data qubits of the edges the last [`grow`] grew fully: a
    /// superset of the correction [`peel`] would return, since peeling
    /// walks fully grown edges only.
    pub(crate) fn fully_grown_qubits<'a>(
        &'a self,
        graph: &'a DecodingGraph,
    ) -> impl Iterator<Item = usize> + 'a {
        self.grown_edges
            .iter()
            .map(|&e| usize::from(e))
            .filter(|&e| self.edge_growth[e] >= 2)
            .map(|e| graph.edges[e].2)
    }

    /// Appends the footprint of the last [`grow`], ascending and
    /// deduplicated: to `verts` the endpoints of its grown edges, the
    /// boundary excluded (every cluster vertex among them: a defect grows
    /// all its edges, and every other cluster vertex ends a full edge);
    /// to `edges` every edge incident to a non-boundary cluster vertex,
    /// which includes every grown edge (only those vertices grow edges). Another growth that
    /// reaches none of `verts` and grows none of `edges` runs beside this
    /// one without touching it (see [`crate::montecarlo`]).
    pub(crate) fn footprint(
        &self,
        graph: &DecodingGraph,
        verts: &mut Vec<u16>,
        edges: &mut Vec<u16>,
    ) {
        let boundary = graph.boundary();
        let (v0, e0) = (verts.len(), edges.len());
        each_set_bit(&self.in_cluster, |v| {
            if v != boundary {
                edges.extend_from_slice(graph.adj(v));
            }
        });
        for &e in &self.grown_edges {
            verts
                .extend(graph.ends[usize::from(e)].iter().filter(|&&v| usize::from(v) != boundary));
        }
        for (ids, from) in [(verts, v0), (edges, e0)] {
            ids[from..].sort_unstable();
            let mut kept = from;
            for i in from..ids.len() {
                if kept == from || ids[i] != ids[kept - 1] {
                    ids[kept] = ids[i];
                    kept += 1;
                }
            }
            ids.truncate(kept);
        }
    }

    /// Whether the last [`grow`] absorbed any of `verts` into a cluster
    /// or grew any of `edges`: the guard test of a split verdict.
    #[inline]
    pub(crate) fn reaches(&self, verts: &[u16], edges: &[u16]) -> bool {
        verts.iter().any(|&v| PackedLattice::get_bit(&self.in_cluster, usize::from(v)))
            || edges.iter().any(|&e| self.edge_growth[usize::from(e)] != 0)
    }

    #[inline]
    fn find(&mut self, x: u16) -> u16 {
        let mut x = usize::from(x);
        while usize::from(self.parent[x]) != x {
            self.parent[x] = self.parent[usize::from(self.parent[x])];
            x = usize::from(self.parent[x]);
        }
        x as u16
    }

    /// Merges the clusters of `a` and `b`, keeping the live-cluster
    /// count: a cluster is live while its flags are exactly [`ODD`].
    fn union(&mut self, a: u16, b: u16) {
        let (ra, rb) = (usize::from(self.find(a)), usize::from(self.find(b)));
        if ra != rb {
            let (fa, fb) = (self.flags[ra], self.flags[rb]);
            let merged = (fa ^ fb) & ODD | (fa | fb) & BOUNDARY;
            self.live -= usize::from(fa == ODD) + usize::from(fb == ODD);
            self.live += usize::from(merged == ODD);
            self.parent[ra] = rb as u16;
            self.flags[rb] = merged;
        }
    }

    /// Returns `true` iff `v` was not yet in a cluster, and marks it.
    #[inline]
    fn absorb(&mut self, v: usize) -> bool {
        let (word, bit) = (&mut self.in_cluster[v >> 6], 1u64 << (v & 63));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Undoes everything the last [`decode_into`] call wrote. Only
    /// cluster vertices, the boundary and grown edges ever leave their
    /// initial state: every union, defect flip and tree edge lies on a
    /// fully grown edge, whose endpoints are cluster vertices. (The
    /// `edge_seen` round stamps only ever grow, so they and the claims
    /// they date need no reset.)
    fn reset(&mut self, boundary: usize) {
        self.correction.clear();
        self.frontier.clear();
        let in_cluster = std::mem::take(&mut self.in_cluster);
        each_set_bit(&in_cluster, |v| self.reset_vertex(v));
        self.in_cluster = in_cluster;
        self.in_cluster.fill(0);
        self.reset_vertex(boundary);
        self.flags[boundary] = BOUNDARY;
        for e in self.grown_edges.drain(..) {
            let e = usize::from(e);
            self.edge_growth[e] = 0;
            self.in_tree[e] = false;
            self.removed[e] = false;
        }
    }

    fn reset_vertex(&mut self, v: usize) {
        self.parent[v] = v as u16;
        self.flags[v] = 0;
        self.defect[v] = false;
        self.visited[v] = false;
        self.degree[v] = 0;
    }

    /// Depth-first spanning tree over the fully grown edges from `root`,
    /// unless an earlier tree already reached it.
    fn span_tree(&mut self, graph: &DecodingGraph, root: usize) {
        if self.visited[root] {
            return;
        }
        self.visited[root] = true;
        self.stack.clear();
        self.stack.push(root);
        while let Some(v) = self.stack.pop() {
            for &e in graph.adj(v) {
                let e = usize::from(e);
                if self.edge_growth[e] < 2 || self.in_tree[e] {
                    continue;
                }
                let (a, b, _) = graph.edges[e];
                let other = if a == v { b } else { a };
                if self.visited[other] {
                    continue;
                }
                self.visited[other] = true;
                self.in_tree[e] = true;
                self.degree[v] += 1;
                self.degree[other] += 1;
                self.stack.push(other);
            }
        }
    }
}

/// Visits the set bits of a bitset in ascending order.
fn each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f((w << 6) + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Decodes a packed syndrome (`u64` bitset words, one bit per check)
/// using only the buffers in `scratch`, returning the data qubits to
/// flip as a slice into the arena. **Allocation-free**: every call
/// reuses the arena; the returned slice is valid until the next call.
///
/// Produces exactly the correction [`decode_reference`] produces for the
/// same syndrome (the equivalence suite pins this), but grows clusters
/// from an active-frontier worklist — per round it visits only the
/// not-yet-full edges incident to live (unfrozen) clusters, instead of
/// rescanning the entire edge set — and resets, roots and peels only
/// the cluster vertices and grown edges, so a call costs O(cluster).
///
/// # Panics
///
/// Panics if `syndrome.len()` differs from [`DecodingGraph::syndrome_words`].
pub fn decode_into<'a>(
    graph: &DecodingGraph,
    syndrome: &[u64],
    scratch: &'a mut DecoderScratch,
) -> &'a [usize] {
    if grow(graph, syndrome, scratch) {
        peel(graph, scratch)
    } else {
        &scratch.correction
    }
}

/// The growth stage of [`decode_into`]: resets the arena (clearing the
/// correction) and grows clusters from the defects of `syndrome` until
/// every cluster is frozen. Returns `false` on a zero syndrome, which
/// needs no peel. Afterwards [`DecoderScratch::fully_grown_qubits`]
/// lists every qubit [`peel`] may put in the correction.
pub(crate) fn grow(graph: &DecodingGraph, syndrome: &[u64], s: &mut DecoderScratch) -> bool {
    assert_eq!(syndrome.len(), graph.syndrome_words(), "syndrome word-count mismatch");
    let boundary = graph.boundary();
    s.reset(boundary);

    // Seed clusters at the defects (word-wise set-bit extraction): each
    // is a live cluster of its own.
    each_set_bit(syndrome, |c| {
        debug_assert!(c < graph.checks, "syndrome bit beyond check count");
        s.flags[c] = ODD;
        s.defect[c] = true;
        s.absorb(c);
        s.frontier.push(c as u16);
    });
    s.live = s.frontier.len();
    if s.live == 0 {
        return false;
    }
    s.stats.decodes += 1;

    // Edges gain support in halves, one per distinct live cluster with
    // an endpoint on the edge, so an edge between two live clusters
    // fills in one round; an edge with full support merges its
    // endpoints. Grow all live clusters in lock step until none is left.
    // The frontier worklist visits exactly the edges the reference's full
    // scan grows: growth<2 edges incident to an in-cluster, unfrozen,
    // non-boundary vertex. A vertex whose incident edges are all full
    // has nothing left to grow and leaves the worklist; a frozen one
    // stays, since a merge can make its cluster live again. Roots are
    // read before any of the round's unions.
    while s.live > 0 {
        s.round_stamp += 1;
        let stamp = s.round_stamp;
        s.full_edges.clear();
        let mut grew = false;
        let mut kept = 0;
        for idx in 0..s.frontier.len() {
            let v = s.frontier[idx];
            let root = s.find(v);
            let mut open = true;
            if s.flags[usize::from(root)] == ODD {
                open = false;
                for &e in graph.adj(usize::from(v)) {
                    let i = usize::from(e);
                    if s.edge_growth[i] >= 2 {
                        continue;
                    }
                    if s.edge_seen[i] != stamp {
                        s.edge_seen[i] = stamp;
                        s.edge_claim[i] = root;
                    } else if s.edge_claim[i] == root {
                        // This cluster already grew it from the other end.
                        open = true;
                        continue;
                    }
                    let growth = &mut s.edge_growth[i];
                    if *growth == 0 {
                        s.grown_edges.push(e);
                    }
                    *growth += 1;
                    if *growth == 2 {
                        s.full_edges.push(e);
                    } else {
                        open = true;
                    }
                    s.stats.edges_grown += 1;
                    grew = true;
                }
            }
            if open {
                s.frontier[kept] = v;
                kept += 1;
            }
        }
        s.frontier.truncate(kept);
        // Live clusters with no growable edge left (all remaining
        // defects pair through the boundary): stop.
        if !grew {
            break;
        }
        s.stats.rounds += 1;
        for i in 0..s.full_edges.len() {
            let [u, v] = graph.ends[usize::from(s.full_edges[i])];
            for w in [u, v] {
                if s.absorb(usize::from(w)) && usize::from(w) != boundary {
                    s.frontier.push(w);
                }
            }
            s.union(u, v);
        }
    }
    true
}

/// The peeling stage of [`decode_into`], run once after a [`grow`] that
/// returned `true`: builds a forest of the fully grown edges, then peels
/// leaves; a leaf carrying a defect adds its edge to the correction and
/// hands the defect to its neighbor. Returns the correction.
pub(crate) fn peel<'a>(graph: &DecodingGraph, s: &'a mut DecoderScratch) -> &'a [usize] {
    // Rooted at the boundary first so boundary-touching clusters peel
    // toward it, then at the cluster vertices in ascending order. A
    // vertex outside every cluster (the boundary included) has no fully
    // grown edge, so it roots an empty tree and is never a leaf: visiting
    // only the cluster set equals scanning every vertex.
    let boundary = graph.boundary();
    let in_cluster = std::mem::take(&mut s.in_cluster);
    if PackedLattice::get_bit(&in_cluster, boundary) {
        s.span_tree(graph, boundary);
    }
    each_set_bit(&in_cluster, |v| s.span_tree(graph, v));
    s.leaves.clear();
    each_set_bit(&in_cluster, |v| {
        if s.degree[v] == 1 && v != boundary {
            s.leaves.push(v);
        }
    });
    s.in_cluster = in_cluster;
    while let Some(v) = s.leaves.pop() {
        if s.degree[v] == 0 {
            continue;
        }
        // A leaf has exactly one live tree edge, so scanning its incident
        // edges finds the one the reference's tree list would.
        let e = graph
            .adj(v)
            .iter()
            .map(|&e| usize::from(e))
            .find(|&e| s.in_tree[e] && !s.removed[e])
            .expect("leaf has one live tree edge");
        let (a, b, _) = graph.edges[e];
        let other = if a == v { b } else { a };
        s.removed[e] = true;
        s.degree[v] -= 1;
        s.degree[other] -= 1;
        if s.defect[v] {
            s.correction.push(graph.edges[e].2);
            s.defect[v] = false;
            s.defect[other] = !s.defect[other];
        }
        if s.degree[other] == 1 && other != boundary {
            s.leaves.push(other);
        }
    }
    &s.correction
}

/// The original full-edge-rescan, allocate-per-call union-find decoder,
/// kept as the oracle the allocation-free engine is verified against:
/// for every syndrome, [`decode_into`] must return exactly this
/// correction.
///
/// # Panics
///
/// Panics if `syndrome.len()` differs from the graph's check count.
// Kept structurally identical to the pre-arena implementation (index
// loops and all), apart from the two-sided growth both engines share, so
// divergences from the fast engine stay attributable.
#[allow(clippy::needless_range_loop)]
pub fn decode_reference(graph: &DecodingGraph, syndrome: &[bool]) -> Vec<usize> {
    assert_eq!(syndrome.len(), graph.checks, "syndrome length mismatch");
    let n = graph.checks + 1;
    struct Uf {
        parent: Vec<usize>,
        parity: Vec<bool>,
        touches_boundary: Vec<bool>,
    }
    impl Uf {
        fn find(&mut self, mut x: usize) -> usize {
            while self.parent[x] != x {
                self.parent[x] = self.parent[self.parent[x]];
                x = self.parent[x];
            }
            x
        }
        fn union(&mut self, a: usize, b: usize) {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra != rb {
                self.parent[ra] = rb;
                let p = self.parity[ra] ^ self.parity[rb];
                self.parity[rb] = p;
                self.touches_boundary[rb] |= self.touches_boundary[ra];
            }
        }
        fn is_frozen(&mut self, x: usize) -> bool {
            let r = self.find(x);
            !self.parity[r] || self.touches_boundary[r]
        }
    }
    let mut uf = Uf {
        parent: (0..n).collect(),
        parity: syndrome.iter().copied().chain(std::iter::once(false)).collect(),
        touches_boundary: (0..n).map(|v| v == graph.boundary()).collect(),
    };

    let mut edge_growth = vec![0u8; graph.edges.len()];
    let mut in_cluster: Vec<bool> = syndrome.to_vec();
    in_cluster.push(false);
    loop {
        let mut any_active = false;
        for v in 0..graph.checks {
            if in_cluster[v] && !uf.is_frozen(v) {
                any_active = true;
            }
        }
        if !any_active {
            break;
        }
        let mut to_merge = Vec::new();
        let mut grew = false;
        for (e, &(u, v, _)) in graph.edges.iter().enumerate() {
            if edge_growth[e] >= 2 {
                continue;
            }
            let u_active = in_cluster[u] && !uf.is_frozen(u);
            let v_active = v < graph.checks && in_cluster[v] && !uf.is_frozen(v);
            if u_active || v_active {
                // One half per distinct live cluster on the edge.
                let two_sided = u_active && v_active && uf.find(u) != uf.find(v);
                edge_growth[e] = (edge_growth[e] + 1 + u8::from(two_sided)).min(2);
                grew = true;
                if edge_growth[e] >= 2 {
                    to_merge.push((u, v));
                }
            }
        }
        if !grew {
            break;
        }
        for (u, v) in to_merge {
            in_cluster[u] = true;
            in_cluster[v] = true;
            uf.union(u, v);
        }
    }

    let mut defect: Vec<bool> = syndrome.to_vec();
    defect.push(false);
    let mut tree_adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (edge, other)
    let mut visited = vec![false; n];
    let mut in_tree = vec![false; graph.edges.len()];
    let mut order: Vec<usize> = vec![graph.boundary()];
    order.extend(0..graph.checks);
    for root in order {
        if visited[root] {
            continue;
        }
        visited[root] = true;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for e in graph.adj(v).iter().map(|&e| usize::from(e)) {
                if edge_growth[e] < 2 || in_tree[e] {
                    continue;
                }
                let (a, b, _) = graph.edges[e];
                let other = if a == v { b } else { a };
                if visited[other] {
                    continue;
                }
                visited[other] = true;
                in_tree[e] = true;
                tree_adj[v].push((e, other));
                tree_adj[other].push((e, v));
                stack.push(other);
            }
        }
    }
    let mut degree: Vec<usize> = tree_adj.iter().map(Vec::len).collect();
    let mut leaves: Vec<usize> =
        (0..n).filter(|&v| degree[v] == 1 && v != graph.boundary()).collect();
    let mut correction = Vec::new();
    let mut removed = vec![false; graph.edges.len()];
    while let Some(v) = leaves.pop() {
        if degree[v] == 0 {
            continue;
        }
        let &(e, other) = tree_adj[v]
            .iter()
            .find(|(e, _)| in_tree[*e] && !removed[*e])
            .expect("leaf has one live tree edge");
        removed[e] = true;
        degree[v] -= 1;
        degree[other] -= 1;
        if defect[v] {
            correction.push(graph.edges[e].2);
            defect[v] = false;
            defect[other] = !defect[other];
        }
        if degree[other] == 1 && other != graph.boundary() {
            leaves.push(other);
        }
    }
    correction
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_x_errors(lattice: &Lattice, x_errors: &[bool]) -> Vec<bool> {
        let graph = DecodingGraph::new(lattice);
        let syn = PackedLattice::pack(&lattice.z_syndrome(x_errors));
        let mut fixed = x_errors.to_vec();
        for &q in decode_into(&graph, &syn, &mut DecoderScratch::new(&graph)) {
            fixed[q] ^= true;
        }
        fixed
    }

    #[test]
    fn empty_syndrome_needs_no_correction() {
        let l = Lattice::new(5);
        let g = DecodingGraph::new(&l);
        let syn = vec![0u64; g.syndrome_words()];
        assert!(decode_into(&g, &syn, &mut DecoderScratch::new(&g)).is_empty());
    }

    #[test]
    fn single_error_is_corrected() {
        let l = Lattice::new(5);
        for q in 0..l.data_qubits() {
            let mut errs = vec![false; l.data_qubits()];
            errs[q] = true;
            let fixed = decode_x_errors(&l, &errs);
            let syn = l.z_syndrome(&fixed);
            assert!(syn.iter().all(|b| !b), "residual syndrome after fixing qubit {q}");
            assert!(!l.is_logical_x(&fixed), "single error became logical at qubit {q}");
        }
    }

    #[test]
    fn two_adjacent_errors_are_corrected() {
        let l = Lattice::new(7);
        let mut errs = vec![false; l.data_qubits()];
        errs[3 * 7 + 2] = true;
        errs[3 * 7 + 3] = true;
        let fixed = decode_x_errors(&l, &errs);
        assert!(l.z_syndrome(&fixed).iter().all(|b| !b));
        assert!(!l.is_logical_x(&fixed));
    }

    #[test]
    fn correction_always_returns_to_codespace() {
        // Random-ish deterministic error patterns: the decoder may fail
        // logically but must always clear the syndrome.
        let l = Lattice::new(5);
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..200 {
            let mut errs = vec![false; l.data_qubits()];
            for e in errs.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *e = (state >> 60) == 0; // p = 1/16
            }
            let fixed = decode_x_errors(&l, &errs);
            assert!(l.z_syndrome(&fixed).iter().all(|b| !b), "decoder left residual syndrome");
        }
    }

    #[test]
    fn column_errors_up_to_half_the_distance_are_corrected_at_d23() {
        // X errors down one column are the shortest road to a logical
        // failure. Every column, row gap 1–4 and offset, up to weight 11
        // = (23 − 1)/2: each pattern decodes back to the code space with
        // no logical error. Rows 1, 4, …, 22 (weight 8) and 1, 3, …, 21
        // (weight 11) are what a decoder growing each edge one half per
        // round, however many live clusters end on it, miscorrects; the
        // weight-8 pattern of column 0 is named first.
        let d = 23;
        let l = Lattice::new(d);
        let check = |rows: &[usize], col: usize| {
            let mut errs = vec![false; l.data_qubits()];
            rows.iter().for_each(|&r| errs[r * d + col] = true);
            let fixed = decode_x_errors(&l, &errs);
            assert!(l.z_syndrome(&fixed).iter().all(|b| !b), "rows {rows:?} of column {col}");
            assert!(!l.is_logical_x(&fixed), "rows {rows:?} of column {col} fail");
        };
        check(&[1, 4, 7, 10, 13, 16, 19, 22], 0);
        let mut patterns = 0;
        for col in 0..d {
            for gap in 1..=4 {
                for offset in 0..gap {
                    let rows: Vec<usize> = (offset..d).step_by(gap).take(11).collect();
                    for weight in 1..=rows.len() {
                        check(&rows[..weight], col);
                        patterns += 1;
                    }
                }
            }
        }
        assert_eq!(patterns, 23 * (11 + 22 + 23 + 23));
    }

    #[test]
    fn graph_structure_is_sane() {
        let l = Lattice::new(5);
        let g = DecodingGraph::new(&l);
        // Every data qubit appears exactly once as an edge.
        assert_eq!(g.edge_count(), l.data_qubits());
        assert_eq!(g.boundary(), l.z_checks.len());
        assert_eq!(g.check_count(), l.z_checks.len());
        // CSR adjacency covers both endpoints of every edge.
        assert_eq!(g.adj_off[g.checks + 1] as usize, 2 * g.edge_count());
        for v in 0..=g.checks {
            for &e in g.adj(v) {
                let (a, b, _) = g.edges[usize::from(e)];
                assert!(a == v || b == v, "edge {e} listed at foreign vertex {v}");
            }
        }
    }

    #[test]
    fn frontier_engine_matches_the_reference_decoder_exactly() {
        // Identical corrections — same qubits, same order — on a dense
        // deterministic syndrome battery, reusing one scratch arena
        // throughout so cross-call contamination would be caught.
        for d in [3usize, 5, 7, 9, 11, 13, 23] {
            let l = Lattice::new(d);
            let g = DecodingGraph::new(&l);
            let mut scratch = DecoderScratch::new(&g);
            let mut state = 0xD1CEu64 ^ (d as u64) << 32;
            for round in 0..300 {
                let mut syn = vec![false; g.check_count()];
                for b in syn.iter_mut() {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    *b = state >> 61 == 0; // p = 1/8 per check
                }
                let reference = decode_reference(&g, &syn);
                let words = PackedLattice::pack(&syn);
                let fast = decode_into(&g, &words, &mut scratch);
                assert_eq!(fast, &reference[..], "d={d} round={round}");
            }
        }
    }

    #[test]
    fn sparse_reset_leaves_no_stale_state_between_mixed_syndromes() {
        // One arena per distance, cycling a dense syndrome (many merged
        // clusters), a single defect, and defects only on checks next
        // to the boundary: every call must still equal the oracle, so
        // state the sparse reset failed to undo would show up here.
        for d in [3usize, 5, 13, 23] {
            let l = Lattice::new(d);
            let g = DecodingGraph::new(&l);
            let boundary_checks: Vec<usize> = (0..g.check_count())
                .filter(|&c| g.adj(c).iter().any(|&e| g.edges[usize::from(e)].1 == g.boundary()))
                .collect();
            let mut scratch = DecoderScratch::new(&g);
            let mut state = 0xB0_0DA7u64 ^ (d as u64) << 40;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 11
            };
            for round in 0..240 {
                let mut syn = vec![false; g.check_count()];
                match round % 3 {
                    0 => {
                        let errs: Vec<bool> =
                            (0..l.data_qubits()).map(|_| next() % 100 < 15).collect(); // p = 0.15
                        syn = l.z_syndrome(&errs);
                    }
                    1 => {
                        let c = next() as usize % g.check_count();
                        syn[c] = true;
                    }
                    _ => {
                        for &c in &boundary_checks {
                            syn[c] = next() % 4 == 0;
                        }
                    }
                }
                let reference = decode_reference(&g, &syn);
                let fast = decode_into(&g, &PackedLattice::pack(&syn), &mut scratch);
                assert_eq!(fast, &reference[..], "d={d} round={round}");
            }
        }
    }

    #[test]
    fn scratch_stats_accumulate_and_reset() {
        let l = Lattice::new(5);
        let g = DecodingGraph::new(&l);
        let mut scratch = DecoderScratch::new(&g);
        let mut syn = vec![0u64; g.syndrome_words()];
        syn[0] = 0b1; // one defect: must grow at least one round
        let _ = decode_into(&g, &syn, &mut scratch);
        let stats = scratch.stats();
        assert_eq!(stats.decodes, 1);
        assert!(stats.rounds >= 1 && stats.edges_grown >= 1, "{stats:?}");
        assert_eq!(scratch.take_stats(), stats);
        assert_eq!(scratch.stats(), DecodeStats::default());
        // Zero syndrome never counts as a decode.
        syn[0] = 0;
        assert!(decode_into(&g, &syn, &mut scratch).is_empty());
        assert_eq!(scratch.stats().decodes, 0);
    }
}
