//! The per-block affinity graph and its pruning (paper §3.1, §3.4,
//! Algorithm 2).
//!
//! Vertices are resources (a pinned resource, or an unpinned variable
//! standing for itself); edges are φ-coalescing opportunities weighted by
//! multiplicity. After removing edges whose endpoints interfere the graph
//! is bipartite (φ-definition side vs. argument side); the remaining
//! pruning problem is NP-complete, so a greedy weighted heuristic deletes
//! edges until no two vertices of a connected component interfere.

use crate::interfere::{resource_interfere_reason, InterfereReason, InterferenceEnv, ResourceSet};
use tossa_ir::ids::{Block, EntityVec, Resource, Var};
use tossa_ir::Function;

/// A vertex of the affinity graph: an already-pinned resource or an
/// unpinned variable (its own resource).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RVertex {
    /// A resource with definition-pinned members.
    Res(Resource),
    /// An unpinned variable.
    Bare(Var),
}

impl RVertex {
    /// A dense id for the vertex: resources and variables interleaved,
    /// so a table indexed by it grows with the larger of the two id
    /// ranges and needs neither size up front.
    fn dense(self) -> usize {
        match self {
            RVertex::Res(r) => 2 * r.index(),
            RVertex::Bare(v) => 2 * v.index() + 1,
        }
    }
}

/// Looks up `v` in a table of positions indexed by [`RVertex::dense`]
/// (`u32::MAX` = absent), first registering it at position `next` when
/// it is absent. Returns the position and whether it was new.
fn dense_position(table: &mut Vec<u32>, v: RVertex, next: usize) -> (usize, bool) {
    let d = v.dense();
    if d >= table.len() {
        table.resize(d + 1, u32::MAX);
    }
    match table[d] {
        u32::MAX => {
            table[d] = next as u32;
            (next, true)
        }
        k => (k as usize, false),
    }
}

/// `Resource_def(v)` (paper §3): the resource of `v`'s definition.
pub fn resource_def(f: &Function, v: Var) -> RVertex {
    match f.var(v).pin {
        Some(r) => RVertex::Res(r),
        None => RVertex::Bare(v),
    }
}

/// The affinity multigraph of one basic block.
///
/// Edges live in a sorted vec keyed by ordered vertex index pairs.
/// [`AffinityGraph::add_edge`] only buffers; the batch is sorted and
/// merged into the map by the next mutable operation (or an explicit
/// [`AffinityGraph::flush`]). Construction therefore does one sort per
/// graph instead of one hash insert per φ argument, iteration is
/// deterministic by key with no per-round sorting, and the pruning
/// loops' key scans walk a contiguous vec.
#[derive(Clone, Debug, Default)]
pub struct AffinityGraph {
    verts: Vec<RVertex>,
    /// Position of each vertex in `verts`, by [`RVertex::dense`].
    index: Vec<u32>,
    /// Edge multiplicities, sorted by ordered vertex index pair.
    edges: Vec<(EdgeKey, u32)>,
    /// Buffered insertions, merged into `edges` on flush.
    pending: Vec<(EdgeKey, u32)>,
}

impl AffinityGraph {
    fn vertex(&mut self, v: RVertex) -> usize {
        let (i, new) = dense_position(&mut self.index, v, self.verts.len());
        if new {
            self.verts.push(v);
        }
        i
    }

    fn key(a: usize, b: usize) -> (usize, usize) {
        if a < b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Buffers one affinity edge of multiplicity `m` between the
    /// vertices for `a` and `b` (self-loops are dropped). Cheap: the
    /// sorted map is only rebuilt on the next flush.
    pub fn add_edge(&mut self, a: RVertex, b: RVertex, m: u32) {
        let ia = self.vertex(a);
        let ib = self.vertex(b);
        if ia == ib {
            return;
        }
        self.pending.push((Self::key(ia, ib), m));
    }

    /// Merges buffered insertions into the sorted edge map.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.pending);
        batch.sort_unstable_by_key(|&(k, _)| k);
        // Merge-join the sorted batch with the sorted map, summing
        // multiplicities of equal keys.
        let old = std::mem::take(&mut self.edges);
        let mut merged: Vec<(EdgeKey, u32)> = Vec::with_capacity(old.len() + batch.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < batch.len() {
            let next = match (old.get(i), batch.get(j)) {
                (Some(&(ka, ma)), Some(&(kb, _))) if ka < kb => {
                    i += 1;
                    (ka, ma)
                }
                (Some(&(ka, ma)), Some(&(kb, mb))) if ka == kb => {
                    i += 1;
                    j += 1;
                    (ka, ma + mb)
                }
                (_, Some(&(kb, mb))) => {
                    j += 1;
                    (kb, mb)
                }
                (Some(&(ka, ma)), None) => {
                    i += 1;
                    (ka, ma)
                }
                (None, None) => unreachable!(),
            };
            match merged.last_mut() {
                Some(last) if last.0 == next.0 => last.1 += next.1,
                _ => merged.push(next),
            }
        }
        self.edges = merged;
    }

    fn assert_flushed(&self) {
        debug_assert!(self.pending.is_empty(), "AffinityGraph read before flush()");
    }

    /// Multiplicity of the edge with `key`, if present.
    fn weight_of(&self, key: EdgeKey) -> Option<u32> {
        self.assert_flushed();
        self.edges
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.edges[i].1)
    }

    /// Removes the edge with `key`, returning its multiplicity.
    fn remove_edge(&mut self, key: EdgeKey) -> Option<u32> {
        self.flush();
        self.edges
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.edges.remove(i).1)
    }

    /// Number of edges (ignoring multiplicity).
    pub fn num_edges(&self) -> usize {
        self.assert_flushed();
        self.edges.len()
    }

    /// The vertices.
    pub fn vertices(&self) -> &[RVertex] {
        &self.verts
    }

    /// Iterates over `(a, b, multiplicity)` in key order.
    pub fn edges(&self) -> impl Iterator<Item = (RVertex, RVertex, u32)> + '_ {
        self.assert_flushed();
        self.edges
            .iter()
            .map(move |&((a, b), m)| (self.verts[a], self.verts[b], m))
    }
}

/// `Create_affinity_graph` (Algorithm 2 / Algorithm 3): one vertex per
/// `Resource_def` of the φ results and arguments of `block`, one edge per
/// φ argument (with multiplicity). With `depth_filter = Some(d)` only
/// arguments whose definition lives at loop depth `d` contribute
/// (Algorithm 3, the paper's `depth` variant).
///
/// `avoidable` refines the paper's gain estimate (\[LIM1\]): an argument
/// that is already killed within its own resource cannot actually have
/// its copy elided (the reconstruction reads its repair variable), so it
/// contributes no multiplicity and creates no edge.
pub fn create_affinity_graph(
    f: &Function,
    block: Block,
    depth_filter: Option<(&dyn Fn(Var) -> u32, u32)>,
    avoidable: &dyn Fn(Var) -> bool,
) -> AffinityGraph {
    let mut g = AffinityGraph::default();
    for phi in f.phis(block) {
        let inst = f.inst(phi);
        let x_res = resource_def(f, inst.defs[0].var);
        g.vertex(x_res);
        for u in inst.uses {
            if let Some((depth_of, want)) = depth_filter {
                if depth_of(u.var) != want {
                    continue;
                }
            }
            if !avoidable(u.var) {
                continue;
            }
            let arg_res = resource_def(f, u.var);
            // A self-edge means the argument is already coalesced with
            // the φ result: the gain is secured, add_edge drops it.
            g.add_edge(x_res, arg_res, 1);
        }
    }
    g.flush();
    g
}

/// Pairwise resource-interference oracle over graph vertices, memoized
/// for the duration of one block's pruning (no merges happen meanwhile).
///
/// Vertices are numbered in the order the oracle first meets them; every
/// table below is indexed by that number.
pub struct VertexInterference<'a> {
    env: &'a InterferenceEnv<'a>,
    members: &'a EntityVec<Resource, Vec<Var>>,
    /// Oracle number of each vertex met so far, by [`RVertex::dense`].
    number: Vec<u32>,
    /// Per-vertex resource set and its `killed_within`, computed when
    /// the vertex is first met (membership is frozen while a block is
    /// pruned).
    per_vertex: Vec<(ResourceSet, Vec<Var>)>,
    /// Memoized verdicts as a lower triangle: the pair `i > j` sits at
    /// `i·(i−1)/2 + j`; `None` = not asked yet.
    cache: Vec<Option<Option<InterfereReason>>>,
    /// Query/hit tallies, kept as plain integers on the hot path and
    /// flushed to the trace sink once, when the oracle is dropped.
    queries: u64,
    hits: u64,
}

impl Drop for VertexInterference<'_> {
    fn drop(&mut self) {
        tossa_trace::count(tossa_trace::Counter::OracleQueries, self.queries);
        tossa_trace::count(tossa_trace::Counter::OracleCacheHits, self.hits);
    }
}

impl<'a> VertexInterference<'a> {
    /// Creates the oracle over the current membership map.
    pub fn new(
        env: &'a InterferenceEnv<'a>,
        members: &'a EntityVec<Resource, Vec<Var>>,
    ) -> VertexInterference<'a> {
        VertexInterference {
            env,
            members,
            number: Vec::new(),
            per_vertex: Vec::new(),
            cache: Vec::new(),
            queries: 0,
            hits: 0,
        }
    }

    /// The variable set denoted by a vertex.
    pub fn set_of(&self, v: RVertex) -> ResourceSet {
        match v {
            RVertex::Res(r) => ResourceSet {
                members: self.members.get(r).cloned().unwrap_or_default(),
                is_phys: self.env.f.resources.as_phys(r).is_some(),
            },
            RVertex::Bare(v) => ResourceSet::singleton(v),
        }
    }

    /// The vertex's oracle number; a vertex met for the first time gets
    /// the next one, its resource set and killed-within list, and a row
    /// of unasked pairs.
    fn number_of(&mut self, v: RVertex) -> usize {
        let (i, new) = dense_position(&mut self.number, v, self.per_vertex.len());
        if new {
            let s = self.set_of(v);
            let k = s.killed_within(self.env);
            self.per_vertex.push((s, k));
            self.cache.resize(self.cache.len() + i, None);
        }
        i
    }

    /// Whether two vertices' resources interfere (`Resource_interfere`).
    pub fn interfere(&mut self, a: RVertex, b: RVertex) -> bool {
        self.interfere_reason(a, b).is_some()
    }

    /// [`Self::interfere`], reporting which rule fired and its witness
    /// pair. The reason is memoized alongside the verdict, so asking for
    /// it costs no extra interference work.
    pub fn interfere_reason(&mut self, a: RVertex, b: RVertex) -> Option<InterfereReason> {
        if a == b {
            return None;
        }
        self.queries += 1;
        let (ia, ib) = (self.number_of(a), self.number_of(b));
        let (hi, lo) = (ia.max(ib), ia.min(ib));
        let slot = hi * (hi - 1) / 2 + lo;
        if let Some(v) = self.cache[slot] {
            self.hits += 1;
            return v;
        }
        let (sa, ka) = &self.per_vertex[ia];
        let (sb, kb) = &self.per_vertex[ib];
        let r = resource_interfere_reason(self.env, sa, sb, ka, kb);
        self.cache[slot] = Some(r);
        r
    }
}

pub(crate) fn vkey(v: RVertex) -> (u8, usize) {
    match v {
        RVertex::Res(r) => (0, r.index()),
        RVertex::Bare(v) => (1, v.index()),
    }
}

/// One affinity edge discarded by pruning, with the interference that
/// justified the deletion — the raw material of a provenance
/// [`Edge`](tossa_trace::provenance::Kind::Edge) record.
#[derive(Clone, Copy, Debug)]
pub struct PrunedEdge {
    /// First endpoint of the deleted edge.
    pub a: RVertex,
    /// Second endpoint.
    pub b: RVertex,
    /// Its affinity multiplicity.
    pub weight: u32,
    /// The vertex pair whose interference killed the edge: the edge's
    /// own endpoints under initial pruning; under bipartite pruning, the
    /// interfering pair the deletion separates (possibly elsewhere in
    /// the component).
    pub offenders: (RVertex, RVertex),
    /// Which rule the offenders tripped, with its variable witness.
    pub reason: InterfereReason,
}

/// `Graph_InitialPruning` (Algorithm 2): drops every affinity edge whose
/// endpoints interfere. Returns the dropped edges with their
/// interference reasons, in deterministic (vertex-index) order.
pub fn initial_pruning(
    g: &mut AffinityGraph,
    oracle: &mut VertexInterference<'_>,
) -> Vec<PrunedEdge> {
    g.flush();
    let mut pruned = Vec::new();
    // Edges in key order; a removal shifts the next one into place.
    let mut k = 0;
    while k < g.edges.len() {
        let ((ia, ib), weight) = g.edges[k];
        let (a, b) = (g.verts[ia], g.verts[ib]);
        if let Some(reason) = oracle.interfere_reason(a, b) {
            g.edges.remove(k);
            pruned.push(PrunedEdge {
                a,
                b,
                weight,
                offenders: (a, b),
                reason,
            });
        } else {
            k += 1;
        }
    }
    pruned
}

/// `BipartiteGraph_pruning` (Algorithm 2): repeatedly deletes the
/// affinity edge with the largest weight — the weight of `(x, x1)` being
/// the total multiplicity of sibling edges `(x, x2)` whose far endpoint
/// interferes with `x1` — until no two vertices of a connected component
/// interfere (the paper's Condition 2).
///
/// The paper's listed pseudocode decrements weights incrementally, which
/// can both over-delete (a stale positive weight) and under-delete
/// (interferences at distance > 2 never show up in any weight). Since the
/// stated goal is Condition 2, this implementation recomputes true
/// weights every round and, when all weights are zero but a component
/// still contains an interfering pair, deletes the lightest edge on a
/// path between the offenders. Returns the deleted edges with the
/// interfering pair each deletion separates.
pub fn bipartite_pruning(
    g: &mut AffinityGraph,
    oracle: &mut VertexInterference<'_>,
) -> Vec<PrunedEdge> {
    g.flush();
    let verts = g.verts.clone();
    let mut deleted = Vec::new();
    loop {
        // Find an interfering pair inside one connected component.
        let comps = component_indices(g);
        let mut offender: Option<(usize, usize, InterfereReason)> = None;
        'find: for comp in &comps {
            for (i, &a) in comp.iter().enumerate() {
                for &b in &comp[i + 1..] {
                    if let Some(reason) = oracle.interfere_reason(verts[a], verts[b]) {
                        offender = Some((a, b, reason));
                        break 'find;
                    }
                }
            }
        }
        let Some((u, v, offender_reason)) = offender else {
            break;
        };

        // True weights of all current edges, by edge position. Each
        // edge's first interfering far-pair is kept as its provenance
        // witness (found during the same oracle pass — no extra queries).
        let edges = &g.edges;
        let mut weight: Vec<i64> = vec![0; edges.len()];
        let mut culprit: Vec<Option<(usize, usize, InterfereReason)>> = vec![None; edges.len()];
        for (i, &(e1, m1)) in edges.iter().enumerate() {
            for (j, &(e2, m2)) in edges.iter().enumerate().skip(i + 1) {
                let Some((far_a, far_b)) = share_vertex(e1, e2) else {
                    continue;
                };
                if let Some(reason) = oracle.interfere_reason(verts[far_a], verts[far_b]) {
                    weight[i] += i64::from(m2);
                    weight[j] += i64::from(m1);
                    culprit[i].get_or_insert((far_a, far_b, reason));
                    culprit[j].get_or_insert((far_a, far_b, reason));
                }
            }
        }
        let best = (0..edges.len())
            .max_by_key(|&p| (weight[p], std::cmp::Reverse(edges[p].0)))
            .expect("component with an interfering pair has edges");
        let cut = if weight[best] > 0 {
            let (fa, fb, reason) = culprit[best].expect("a positive weight has a witness");
            (edges[best].0, verts[fa], verts[fb], reason)
        } else {
            // The offenders interfere at distance > 2: cut the lightest
            // edge on a path between them.
            let path = edge_path(g, u, v).expect("same component");
            let key = path
                .into_iter()
                .min_by_key(|&k| (g.weight_of(k).expect("edge"), k))
                .expect("non-empty path");
            (key, verts[u], verts[v], offender_reason)
        };
        let (key, off_a, off_b, reason) = cut;
        let weight = g.remove_edge(key).expect("edge present");
        deleted.push(PrunedEdge {
            a: verts[key.0],
            b: verts[key.1],
            weight,
            offenders: (off_a, off_b),
            reason,
        });
    }
    deleted
}

/// A path (as edge keys) between vertex indices `from` and `to`, by BFS.
type EdgeKey = (usize, usize);

fn edge_path(g: &AffinityGraph, from: usize, to: usize) -> Option<Vec<EdgeKey>> {
    let n = g.verts.len();
    let mut prev: Vec<Option<(usize, EdgeKey)>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    visited[from] = true;
    queue.push_back(from);
    while let Some(x) = queue.pop_front() {
        if x == to {
            let mut path = Vec::new();
            let mut cur = to;
            while cur != from {
                let (p, e) = prev[cur].expect("visited");
                path.push(e);
                cur = p;
            }
            return Some(path);
        }
        let mut nexts: Vec<(usize, EdgeKey)> = Vec::new();
        for &((a, b), _) in &g.edges {
            if a == x && !visited[b] {
                nexts.push((b, (a, b)));
            } else if b == x && !visited[a] {
                nexts.push((a, (a, b)));
            }
        }
        nexts.sort();
        for (y, e) in nexts {
            visited[y] = true;
            prev[y] = Some((x, e));
            queue.push_back(y);
        }
    }
    None
}

/// If `e1` and `e2` share exactly one vertex, returns
/// `(far end of e1, far end of e2)`.
fn share_vertex(e1: EdgeKey, e2: EdgeKey) -> Option<(usize, usize)> {
    let (a1, b1) = e1;
    let (a2, b2) = e2;
    let (far1, far2) = if a1 == a2 && b1 != b2 {
        (b1, b2)
    } else if a1 == b2 && b1 != a2 {
        (b1, a2)
    } else if b1 == a2 && a1 != b2 {
        (a1, b2)
    } else if b1 == b2 && a1 != a2 {
        (a1, a2)
    } else {
        return None;
    };
    Some((far1, far2))
}

/// Connected components of the pruned graph; singletons are omitted.
pub fn components(g: &AffinityGraph) -> Vec<Vec<RVertex>> {
    component_indices(g)
        .into_iter()
        .map(|c| c.into_iter().map(|i| g.verts[i]).collect())
        .collect()
}

/// [`components`] as lists of vertex positions, each in increasing
/// order; the components are ordered by their least [`vkey`].
fn component_indices(g: &AffinityGraph) -> Vec<Vec<usize>> {
    let n = g.verts.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = x;
        while parent[c] != r {
            let nx = parent[c];
            parent[c] = r;
            c = nx;
        }
        r
    }
    for &((a, b), _) in &g.edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra] = rb;
        }
    }
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let r = find(&mut parent, i);
        groups[r].push(i);
    }
    let mut out: Vec<Vec<usize>> = groups.into_iter().filter(|c| c.len() > 1).collect();
    out.sort_by_key(|c| c.iter().map(|&i| vkey(g.verts[i])).min());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interfere::EnvHandles;
    use crate::interfere::InterferenceMode;
    use tossa_analysis::AnalysisCache;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    struct Setup {
        f: Function,
        handles: EnvHandles,
    }

    fn setup(text: &str) -> Setup {
        let f = parse_function(text, &Machine::dsp32()).unwrap();
        f.validate().unwrap();
        let handles = EnvHandles::from_cache(&f, &mut AnalysisCache::new());
        Setup { f, handles }
    }

    impl Setup {
        fn env(&self) -> InterferenceEnv<'_> {
            self.handles.env(&self.f, InterferenceMode::Exact)
        }
        fn var(&self, name: &str) -> Var {
            self.f.vars().find(|&v| self.f.var(v).name == name).unwrap()
        }
        fn merge_block(&self) -> Block {
            self.f
                .blocks()
                .find(|&b| self.f.phis(b).next().is_some())
                .expect("block with φs")
        }
    }

    const DIAMOND: &str = "
func @d {
entry:
  %c = input
  br %c, l, r
l:
  %a = make 1
  jump m
r:
  %b = make 2
  jump m
m:
  %x = phi [l: %a], [r: %b]
  ret %x
}";

    #[test]
    fn graph_has_edge_per_argument() {
        let s = setup(DIAMOND);
        let g = create_affinity_graph(&s.f, s.merge_block(), None, &|_| true);
        assert_eq!(g.vertices().len(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edges.iter().map(|&(_, m)| m).sum::<u32>(), 2);
    }

    #[test]
    fn no_interference_nothing_pruned() {
        let s = setup(DIAMOND);
        let env = s.env();
        let members = crate::pinning::resource_members(&s.f);
        let mut oracle = VertexInterference::new(&env, &members);
        let mut g = create_affinity_graph(&s.f, s.merge_block(), None, &|_| true);
        assert!(initial_pruning(&mut g, &mut oracle).is_empty());
        assert!(bipartite_pruning(&mut g, &mut oracle).is_empty());
        let comps = components(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 3);
    }

    #[test]
    fn interfering_arg_is_pruned_initially() {
        // a and x interfere (a used after the φ): edge (x, a) survives?
        // a is live out of l? a flows into the φ and is ALSO used in m
        // after the φ: a live-in m => parallel copy at end of l kills a
        // (Class 2) => x kills a => Resource_interfere({x}, {a}).
        let s = setup(
            "func @i {
entry:
  %c = input
  %a = make 1
  br %c, l, r
l:
  jump m
r:
  %b = make 2
  jump m
m:
  %x = phi [l: %a], [r: %b]
  %y = add %x, %a
  ret %y
}",
        );
        let env = s.env();
        let members = crate::pinning::resource_members(&s.f);
        let mut oracle = VertexInterference::new(&env, &members);
        let mut g = create_affinity_graph(&s.f, s.merge_block(), None, &|_| true);
        assert_eq!(g.num_edges(), 2);
        let dropped = initial_pruning(&mut g, &mut oracle);
        assert_eq!(dropped.len(), 1);
        // The pruned edge carries its own endpoints as offenders and a
        // witness: x's def clobbers the still-live a (Class 1 fires
        // before the φ-kill case).
        let p = &dropped[0];
        assert_eq!((p.a, p.b), p.offenders);
        assert_eq!(p.reason.class, crate::interfere::InterfereClass::Class1);
        let (wa, wb) = p.reason.witness.expect("variable witness");
        assert_eq!(s.f.var(wa).name, "x");
        assert_eq!(s.f.var(wb).name, "a");
        // The surviving component coalesces x with b only.
        let comps = components(&g);
        assert_eq!(comps.len(), 1);
        assert!(comps[0].contains(&RVertex::Bare(s.var("b"))));
        assert!(comps[0].contains(&RVertex::Bare(s.var("x"))));
        assert!(!comps[0].contains(&RVertex::Bare(s.var("a"))));
    }

    #[test]
    fn distance_gt2_interference_still_pruned() {
        // Chained φs x = φ(a, m) and m = φ(x, b) connect a and b at graph
        // distance > 2; if a and b interfere, the paper's weight formula
        // never sees the pair — the Condition-2 loop must still separate
        // the component.
        let s = setup(
            "func @chain {
entry:
  %c, %a, %b = input
  jump h1
h1:
  %x = phi [entry: %a], [h2: %m]
  %u = add %x, %b
  br %c, h2, exit
h2:
  %m = phi [h1: %b]
  jump h1
exit:
  ret %u
}",
        );
        let env = s.env();
        let members = crate::pinning::resource_members(&s.f);
        let mut oracle = VertexInterference::new(&env, &members);
        // Build the union graph by hand over both confluence blocks.
        let mut g = AffinityGraph::default();
        for b in s.f.blocks().collect::<Vec<_>>() {
            let part = create_affinity_graph(&s.f, b, None, &|_| true);
            for (va, vb, m) in part.edges() {
                g.add_edge(va, vb, m);
            }
        }
        initial_pruning(&mut g, &mut oracle);
        bipartite_pruning(&mut g, &mut oracle);
        for comp in components(&g) {
            for (i, &va) in comp.iter().enumerate() {
                for &vb in &comp[i + 1..] {
                    assert!(
                        !oracle.interfere(va, vb),
                        "{va:?} vs {vb:?} in one component"
                    );
                }
            }
        }
    }

    #[test]
    fn fig9_both_phis_resolved_together() {
        // Paper Fig. 9: X = φ(x, y); Y = φ(z, y) with x,y interfering and
        // z,y interfering... in the paper x = f1 and y = f2 in one pred,
        // z = f3 in the other. Our algorithm considers both φs at once.
        let s = setup(
            "func @fig9 {
entry:
  %c = input
  br %c, p1, p2
p1:
  %x = make 1
  %y = make 2
  jump m
p2:
  %z = make 3
  %y2 = make 4
  jump m
m:
  %bigx = phi [p1: %x], [p2: %z]
  %bigy = phi [p1: %y], [p2: %y2]
  %s = add %bigx, %bigy
  ret %s
}",
        );
        let env = s.env();
        let members = crate::pinning::resource_members(&s.f);
        let mut oracle = VertexInterference::new(&env, &members);
        let mut g = create_affinity_graph(&s.f, s.merge_block(), None, &|_| true);
        assert_eq!(g.num_edges(), 4);
        // bigx/bigy strongly interfere (same block φs) but that is a
        // vertex-pair, not an edge; x,y interfere (overlap in p1), etc.
        initial_pruning(&mut g, &mut oracle);
        bipartite_pruning(&mut g, &mut oracle);
        // Post-condition: no two vertices of one component interfere.
        for comp in components(&g) {
            for (i, &a) in comp.iter().enumerate() {
                for &b in &comp[i + 1..] {
                    assert!(!oracle.interfere(a, b), "{a:?} vs {b:?}");
                }
            }
        }
    }
}
