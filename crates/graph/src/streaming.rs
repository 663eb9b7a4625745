//! Chunk-parallel streaming generators: the one implementation of every
//! deterministic graph family, plus the large-`n` random families.
//!
//! Edges are emitted into fixed-size index chunks in parallel (rayon),
//! stitched in chunk order, and assembled through the pre-sized
//! [`GraphBuilder`] fast path with no per-edge hashing.  Every generator
//! checks its node and edge counts against the `u32` CSR id space before it
//! emits anything.
//!
//! # Determinism contract
//!
//! * Chunk boundaries are a fixed constant (`CHUNK`), never derived from the
//!   worker count, and the vendored rayon stitches mapped chunks in index
//!   order — so every generator here is bit-identical across
//!   `RAYON_NUM_THREADS` and across repeated runs with the same seed.
//! * The **deterministic** families (path, cycle, grids, trees, fat-tree,
//!   ring-of-cliques, barbell) are defined only here; [`crate::generators`]
//!   re-exports them, so small-`n` experiments and the scale tier build the
//!   same graphs.
//! * The **random** families (Erdős–Rényi, random-geometric, Chung–Lu) keep
//!   two streams.  The sequential ones in [`crate::generators`] draw from one
//!   `Rng` over all `Θ(n²)` pairs and feed every recorded small-`n` artifact.
//!   The ones here define a different canonical stream: every chunk seeds its
//!   own `ChaCha8` from a SplitMix64-mixed `(seed, salt, chunk index)` triple
//!   and draws independently of all other chunks, so the same seed gives a
//!   different graph than the sequential generator.
//!
//! The random families replace the all-pairs Bernoulli scans with
//! sub-quadratic samplers: geometric skip sampling for `G(n, p)`, the
//! Miller–Hagberg weight-skipping walk for Chung–Lu, and radius-cell
//! bucketing for the random geometric graph.

use rand::{Rng, RngCore, SeedableRng, SplitMix64};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::builder::validate_counts;
use crate::csr::{Graph, NodeId, Weight};
use crate::error::GraphError;
use crate::unionfind::UnionFind;
use crate::{GraphBuilder, Result};

/// Fixed chunk length for parallel emission.  A constant (rather than
/// anything derived from the worker count) is what keeps streamed graphs
/// bit-identical across `RAYON_NUM_THREADS`.
const CHUNK: usize = 1 << 14;

type Edge = (NodeId, NodeId, Weight);

/// Mixes `(seed, salt, chunk)` through a SplitMix64 step into an independent
/// `ChaCha8` stream seed.  `salt` separates the draw phases of one generator
/// (e.g. backbone parents vs. extra edges), `chunk` the parallel chunks.
fn chunk_rng(seed: u64, salt: u64, chunk: u64) -> ChaCha8Rng {
    let mut mix = SplitMix64::new(seed ^ (salt << 32) ^ chunk);
    ChaCha8Rng::seed_from_u64(mix.next_u64())
}

/// Runs `emit` over fixed-size index chunks of `0..total` in parallel and
/// returns the per-chunk edge vectors in chunk order.
fn emit_chunked(
    total: usize,
    emit: impl Fn(usize, std::ops::Range<usize>, &mut Vec<Edge>) + Sync,
) -> Vec<Vec<Edge>> {
    let chunks = total.div_ceil(CHUNK);
    let run = |c: usize| {
        let lo = c * CHUNK;
        let hi = (lo + CHUNK).min(total);
        let mut out = Vec::new();
        emit(c, lo..hi, &mut out);
        out
    };
    // A single chunk runs inline: waking the pool would cost more than the
    // small graphs most experiments build.
    if chunks <= 1 {
        return (0..chunks).map(run).collect();
    }
    (0..chunks).into_par_iter().map(run).collect()
}

/// Stitches chunked edge sections into a pre-sized builder (exact edge count,
/// no per-edge hashing) and finalises with the usual connectivity check.
fn assemble(n: usize, sections: Vec<Vec<Edge>>) -> Result<Graph> {
    let m: usize = sections.iter().map(Vec::len).sum();
    let mut b = GraphBuilder::streaming(n, m)?;
    for chunk in sections {
        for (u, v, w) in chunk {
            b.push_normalized_edge(u, v, w);
        }
    }
    b.build()
}

/// Rejects a graph the `u32` CSR id space cannot hold *before* a generator
/// emits any edge, so an oversized request fails fast instead of
/// materialising `Θ(n)` edges first.  `n` is `None` when the node count
/// overflowed `usize`; `edges` maps a node count that fits `u32` to the edge
/// count (at most `n²/2`, so it cannot overflow a 64-bit `usize`).  Returns
/// the node count.
fn checked_size(n: Option<usize>, edges: impl FnOnce(usize) -> usize) -> Result<usize> {
    let n = n.unwrap_or(usize::MAX);
    validate_counts(n, 0)?;
    validate_counts(n, edges(n))?;
    Ok(n)
}

/// Path graph `P_n` on `n` nodes.  `NQ_k ∈ Θ(min(√k, D))` (Theorem 15).
pub fn path(n: usize) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    checked_size(Some(n), |n| n - 1)?;
    assemble(
        n,
        emit_chunked(n - 1, |_, range, out| {
            for i in range {
                out.push((i as NodeId, (i + 1) as NodeId, 1));
            }
        }),
    )
}

/// Cycle graph `C_n` on `n >= 3` nodes.
pub fn cycle(n: usize) -> Result<Graph> {
    if n < 3 {
        return Err(GraphError::InvalidParameter {
            reason: format!("cycle requires n >= 3, got {n}"),
        });
    }
    checked_size(Some(n), |n| n)?;
    assemble(
        n,
        emit_chunked(n, |_, range, out| {
            for i in range {
                if i + 1 < n {
                    out.push((i as NodeId, (i + 1) as NodeId, 1));
                } else {
                    out.push((0, (n - 1) as NodeId, 1));
                }
            }
        }),
    )
}

/// `d`-dimensional grid graph with side lengths `dims` (Definition 3.9 uses
/// equal sides; arbitrary sides are supported).  `NQ_k ∈ Θ(min(k^{1/(d+1)}, D))`
/// for constant `d` (Theorem 16).
pub fn grid(dims: &[usize]) -> Result<Graph> {
    if dims.is_empty() || dims.contains(&0) {
        return Err(GraphError::InvalidParameter {
            reason: "grid dimensions must be non-empty and positive".into(),
        });
    }
    // Axis `i` contributes `(dᵢ − 1) · n / dᵢ` edges.
    let n = checked_size(
        dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d)),
        |n| dims.iter().map(|&d| (d - 1) * (n / d)).sum(),
    )?;
    let mut strides = vec![1usize; dims.len()];
    for i in 1..dims.len() {
        strides[i] = strides[i - 1] * dims[i - 1];
    }
    assemble(
        n,
        emit_chunked(n, |_, range, out| {
            let mut coords = vec![0usize; dims.len()];
            for flat in range {
                let mut rest = flat;
                for (i, &d) in dims.iter().enumerate() {
                    coords[i] = rest % d;
                    rest /= d;
                }
                for (axis, &d) in dims.iter().enumerate() {
                    if coords[axis] + 1 < d {
                        out.push((flat as NodeId, (flat + strides[axis]) as NodeId, 1));
                    }
                }
            }
        }),
    )
}

/// Truncated complete `arity`-ary tree with **exactly** `n` nodes: the tree
/// is filled level by level in BFS (heap) numbering — node `v`'s children are
/// `arity·v + 1 ..= arity·v + arity` — and simply stops at `n`, so every
/// level except possibly the last is full.  This keeps the depth at
/// `⌈log_arity n⌉` without the up-to-`arity ×` size overshoot of
/// [`crate::generators::tree_balanced`].
pub fn tree_with_n(arity: usize, n: usize) -> Result<Graph> {
    if arity == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "tree arity must be positive".into(),
        });
    }
    if n == 0 {
        return Err(GraphError::Empty);
    }
    checked_size(Some(n), |n| n - 1)?;
    assemble(
        n,
        emit_chunked(n - 1, |_, range, out| {
            for i in range {
                // Parent of node v (BFS numbering): (v - 1) / arity.
                let v = i + 1;
                out.push((((v - 1) / arity) as NodeId, v as NodeId, 1));
            }
        }),
    )
}

/// A simplified two-level fat-tree / leaf–spine data-center topology:
/// `spines` spine switches, `leaves` leaf switches (each connected to every
/// spine) and `hosts_per_leaf` hosts per leaf.  Small diameter, highly
/// non-uniform neighbourhood growth — the regime where universal optimality
/// pays off most.
pub fn fat_tree(spines: usize, leaves: usize, hosts_per_leaf: usize) -> Result<Graph> {
    if spines == 0 || leaves == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "fat_tree requires at least one spine and one leaf".into(),
        });
    }
    let n = checked_size(
        leaves
            .checked_mul(hosts_per_leaf)
            .and_then(|hosts| hosts.checked_add(spines.checked_add(leaves)?)),
        |_| leaves * (spines + hosts_per_leaf),
    )?;
    assemble(
        n,
        emit_chunked(leaves, |_, range, out| {
            for l in range {
                let leaf = spines + l;
                for s in 0..spines {
                    out.push((s as NodeId, leaf as NodeId, 1));
                }
                for h in 0..hosts_per_leaf {
                    let host = spines + leaves + l * hosts_per_leaf + h;
                    out.push((leaf as NodeId, host as NodeId, 1));
                }
            }
        }),
    )
}

/// Ring of cliques: `cliques` cliques of `clique_size` nodes arranged in a
/// cycle, each adjacent pair joined by `bridges` parallel-free edges (bridge
/// `i` connects node `i` of one clique to node `i` of the next).  A clustered
/// small-world family with a tunable cut: locally dense (`NQ_k` small inside
/// a clique) but globally cycle-like, so dissemination must cross `bridges`
/// edges per cut — stressing the interplay of local flooding and the global
/// scheduler.  `bridges` must be at most `clique_size`.
pub fn ring_of_cliques(cliques: usize, clique_size: usize, bridges: usize) -> Result<Graph> {
    if cliques < 3 {
        return Err(GraphError::InvalidParameter {
            reason: format!("ring_of_cliques requires >= 3 cliques, got {cliques}"),
        });
    }
    if clique_size == 0 {
        return Err(GraphError::Empty);
    }
    if bridges == 0 || bridges > clique_size {
        return Err(GraphError::InvalidParameter {
            reason: format!(
                "ring_of_cliques requires 1 <= bridges <= clique_size, got {bridges} bridges for clique size {clique_size}"
            ),
        });
    }
    let n = checked_size(cliques.checked_mul(clique_size), |n| {
        n * (clique_size - 1) / 2 + cliques * bridges
    })?;
    assemble(
        n,
        emit_chunked(cliques, |_, range, out| {
            for c in range {
                let base = c * clique_size;
                for u in 0..clique_size {
                    for v in (u + 1)..clique_size {
                        out.push(((base + u) as NodeId, (base + v) as NodeId, 1));
                    }
                }
                let next_base = ((c + 1) % cliques) * clique_size;
                for i in 0..bridges {
                    let (a, b) = (base + i, next_base + i);
                    out.push((a.min(b) as NodeId, a.max(b) as NodeId, 1));
                }
            }
        }),
    )
}

/// Barbell graph: two cliques of `clique` nodes joined by a path of
/// `path_len` intermediate nodes.  The archetypal bottleneck topology — all
/// clique-to-clique traffic funnels through one path — which stresses the
/// γ-capacitated global scheduler exactly where the paper's universal lower
/// bound (the node communication problem across the narrow cut) is tight.
pub fn barbell(clique: usize, path_len: usize) -> Result<Graph> {
    if clique == 0 {
        return Err(GraphError::Empty);
    }
    let n = checked_size(
        clique
            .checked_mul(2)
            .and_then(|cliques| cliques.checked_add(path_len)),
        |_| clique * (clique - 1) + path_len + 1,
    )?;
    // Clique A: nodes [0, clique); path: [clique, clique + path_len);
    // clique B: [clique + path_len, n).
    let clique_rows = |base: usize| {
        emit_chunked(clique, move |_, range, out| {
            for u in range {
                for v in (u + 1)..clique {
                    out.push(((base + u) as NodeId, (base + v) as NodeId, 1));
                }
            }
        })
    };
    let mut sections = clique_rows(0);
    sections.extend(clique_rows(clique + path_len));
    sections.extend(emit_chunked(path_len + 1, |_, range, out| {
        for i in range {
            // i = 0 attaches the path to the last node of clique A; the final
            // index attaches it to the first node of clique B.
            let (a, b) = if i == 0 {
                (clique - 1, clique)
            } else {
                (clique + i - 1, clique + i)
            };
            out.push((a as NodeId, b as NodeId, 1));
        }
    }));
    assemble(n, sections)
}

/// Streaming connected Erdős–Rényi graph `G(n, p)`.
///
/// The canonical stream differs from [`crate::generators::erdos_renyi`]:
/// connectivity comes from a random-parent backbone (`parent(v)` uniform in
/// `0..v`, drawn per chunk under salt 0), and the remaining pairs are sampled
/// row-by-row with geometric skips (salt 1) instead of an `Θ(n²)` Bernoulli
/// scan — expected `O(n + m)` draws in total.  A pair already used by the
/// backbone is skipped, keeping the graph simple.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter {
            reason: format!("edge probability must be in [0,1], got {p}"),
        });
    }
    checked_size(Some(n), |_| 0)?;
    // Salt 0: backbone parents, parent(v) uniform in 0..v for v in 1..n.
    let parent_chunks: Vec<Vec<NodeId>> = (0..n.saturating_sub(1).div_ceil(CHUNK).max(1))
        .into_par_iter()
        .map(|c| {
            let lo = 1 + c * CHUNK;
            let hi = (lo + CHUNK).min(n);
            let mut rng = chunk_rng(seed, 0, c as u64);
            (lo..hi.max(lo))
                .map(|v| rng.gen_range(0..v) as NodeId)
                .collect()
        })
        .collect();
    let mut parents: Vec<NodeId> = Vec::with_capacity(n);
    parents.push(0); // node 0 has no parent; the sentinel is never read as one
    for chunk in parent_chunks {
        parents.extend(chunk);
    }
    let backbone = emit_chunked(n.saturating_sub(1), |_, range, out| {
        for i in range {
            let v = (i + 1) as NodeId;
            out.push((parents[v as usize], v, 1));
        }
    });

    // Salt 1: extra edges via geometric skip sampling over each row u.
    let parents_ref = &parents;
    let mut sections = backbone;
    if p > 0.0 && n > 1 {
        sections.extend(emit_chunked(n - 1, |c, range, out| {
            let mut rng = chunk_rng(seed, 1, c as u64);
            let ln_q = (1.0 - p).ln(); // -inf when p == 1: skips collapse to 0
            for u in range {
                let mut v = u + 1;
                loop {
                    if p < 1.0 {
                        let r: f64 = rng.gen();
                        v = v.saturating_add(((1.0 - r).ln() / ln_q) as usize);
                    }
                    if v >= n {
                        break;
                    }
                    if parents_ref[v] as usize != u {
                        out.push((u as NodeId, v as NodeId, 1));
                    }
                    v += 1;
                }
            }
        }));
    }
    assemble(n, sections)
}

/// Streaming random geometric graph on the unit square.
///
/// The canonical stream differs from [`crate::generators::random_geometric`]:
/// points are drawn per chunk (salt 0) and pairs are found through a uniform
/// cell grid of side `>= radius` — each node only compares against the 9
/// neighbouring cells, so the expected work is `O(n + m)` instead of `Θ(n²)`.
/// Stray components are stitched to their nearest foreign node (expanding
/// cell-ring search, smallest index on distance ties), mimicking the sequential
/// generator's relay semantics deterministically.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    if radius <= 0.0 {
        return Err(GraphError::InvalidParameter {
            reason: "radius must be positive".into(),
        });
    }
    checked_size(Some(n), |_| 0)?;
    // Salt 0: points, drawn (x, y) per node in chunk order.
    let point_chunks: Vec<Vec<(f64, f64)>> = (0..n.div_ceil(CHUNK))
        .into_par_iter()
        .map(|c| {
            let lo = c * CHUNK;
            let hi = (lo + CHUNK).min(n);
            let mut rng = chunk_rng(seed, 0, c as u64);
            (lo..hi)
                .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
                .collect()
        })
        .collect();
    let mut points: Vec<(f64, f64)> = Vec::with_capacity(n);
    for chunk in point_chunks {
        points.extend(chunk);
    }

    // Cell grid with side >= radius (capped so the grid stays O(n) cells).
    let cap = (n as f64).sqrt().ceil() as usize + 1;
    let cps = ((1.0 / radius).floor() as usize).clamp(1, cap);
    let cell_of = |x: f64| -> usize { ((x * cps as f64) as usize).min(cps - 1) };
    let cell_id: Vec<usize> = points
        .iter()
        .map(|&(x, y)| cell_of(y) * cps + cell_of(x))
        .collect();
    // Counting-sort nodes by cell; nodes stay in index order within a cell.
    let mut counts = vec![0u32; cps * cps + 1];
    for &c in &cell_id {
        counts[c + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let mut members = vec![0 as NodeId; n];
    let mut cursor = counts.clone();
    for (v, &c) in cell_id.iter().enumerate() {
        members[cursor[c] as usize] = v as NodeId;
        cursor[c] += 1;
    }
    let cell_range = |c: usize| counts[c] as usize..counts[c + 1] as usize;

    let r2 = radius * radius;
    let dist2 = |u: usize, v: usize| -> f64 {
        let dx = points[u].0 - points[v].0;
        let dy = points[u].1 - points[v].1;
        dx * dx + dy * dy
    };
    let mut sections = emit_chunked(n, |_, range, out| {
        let mut candidates: Vec<NodeId> = Vec::new();
        for u in range {
            candidates.clear();
            let (cx, cy) = (cell_of(points[u].0), cell_of(points[u].1));
            for dy in -1i64..=1 {
                let ny = cy as i64 + dy;
                if ny < 0 || ny >= cps as i64 {
                    continue;
                }
                for dx in -1i64..=1 {
                    let nx = cx as i64 + dx;
                    if nx < 0 || nx >= cps as i64 {
                        continue;
                    }
                    for &v in &members[cell_range(ny as usize * cps + nx as usize)] {
                        if (v as usize) > u && dist2(u, v as usize) <= r2 {
                            candidates.push(v);
                        }
                    }
                }
            }
            candidates.sort_unstable();
            for &v in &candidates {
                out.push((u as NodeId, v, 1));
            }
        }
    });

    // Stitch stray components to their nearest foreign node.
    let mut uf = UnionFind::new(n);
    for chunk in &sections {
        for &(u, v, _) in chunk {
            uf.union(u as usize, v as usize);
        }
    }
    let mut stitches: Vec<Edge> = Vec::new();
    while uf.count_sets() > 1 {
        // Lowest-index node not connected to node 0 anchors the next stitch.
        let u = (1..n)
            .find(|&v| !uf.connected(0, v))
            .expect("more than one component implies a node outside 0's set");
        let (cx, cy) = (cell_of(points[u].0), cell_of(points[u].1));
        let mut best: Option<(f64, usize)> = None;
        let mut ring = 0usize;
        loop {
            let mut scanned_any = false;
            for dy in -(ring as i64)..=(ring as i64) {
                let ny = cy as i64 + dy;
                if ny < 0 || ny >= cps as i64 {
                    continue;
                }
                for dx in -(ring as i64)..=(ring as i64) {
                    if dx.unsigned_abs() as usize != ring && dy.unsigned_abs() as usize != ring {
                        continue; // interior cells were scanned by smaller rings
                    }
                    let nx = cx as i64 + dx;
                    if nx < 0 || nx >= cps as i64 {
                        continue;
                    }
                    scanned_any = true;
                    for &v in &members[cell_range(ny as usize * cps + nx as usize)] {
                        if uf.connected(u, v as usize) {
                            continue;
                        }
                        let d = dist2(u, v as usize);
                        let better = match best {
                            None => true,
                            Some((bd, bv)) => d < bd || (d == bd && (v as usize) < bv),
                        };
                        if better {
                            best = Some((d, v as usize));
                        }
                    }
                }
            }
            // One extra ring after the first hit: the closest point of a
            // farther ring can still beat a corner hit of this ring.
            if best.is_some() && ring > 0 {
                break;
            }
            if !scanned_any && ring > 2 * cps {
                break;
            }
            ring += 1;
        }
        let (_, v) = best.expect("a foreign node exists while components remain");
        uf.union(u, v);
        stitches.push((u.min(v) as NodeId, u.max(v) as NodeId, 1));
    }
    sections.push(stitches);
    assemble(n, sections)
}

/// Streaming Chung–Lu power-law graph.
///
/// Weights and stray-component hub attachment match
/// [`crate::generators::chung_lu`] exactly; the pair sampling is the
/// Miller–Hagberg skipping walk (weights are sorted decreasing, so each row
/// walks `v` with geometric skips under the current upper-bound probability
/// and thins lazily to the true `min(1, w_u·w_v / Σw)`), drawn per row chunk
/// under a SplitMix-derived `ChaCha8` stream — expected `O(n + m)` draws.
pub fn chung_lu(n: usize, exponent: f64, avg_degree: f64, seed: u64) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    if exponent <= 1.0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("chung_lu requires a tail exponent > 1, got {exponent}"),
        });
    }
    if avg_degree <= 0.0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("chung_lu requires a positive average degree, got {avg_degree}"),
        });
    }
    checked_size(Some(n), |_| 0)?;
    let alpha = 1.0 / (exponent - 1.0);
    let raw: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-alpha)).collect();
    let raw_sum: f64 = raw.iter().sum();
    let scale = n as f64 * avg_degree / raw_sum;
    let w: Vec<f64> = raw.iter().map(|r| r * scale).collect();
    let total: f64 = n as f64 * avg_degree;

    let w_ref = &w;
    let mut sections = if n > 1 {
        emit_chunked(n - 1, |c, range, out| {
            let mut rng = chunk_rng(seed, 0, c as u64);
            for u in range {
                let wu = w_ref[u];
                let mut v = u + 1;
                let mut p = (wu * w_ref[v] / total).min(1.0);
                while v < n && p > 0.0 {
                    if p < 1.0 {
                        let r: f64 = rng.gen();
                        v = v.saturating_add(((1.0 - r).ln() / (1.0 - p).ln()) as usize);
                        if v >= n {
                            break;
                        }
                    }
                    let q = (wu * w_ref[v] / total).min(1.0);
                    if rng.gen::<f64>() < q / p {
                        out.push((u as NodeId, v as NodeId, 1));
                    }
                    p = q;
                    v += 1;
                }
            }
        })
    } else {
        Vec::new()
    };

    // Attach every stray component to the hub (node 0) through its
    // lowest-index node — the same rule as the sequential generator.
    if n > 1 {
        let mut uf = UnionFind::new(n);
        for chunk in &sections {
            for &(u, v, _) in chunk {
                uf.union(u as usize, v as usize);
            }
        }
        let mut stitches: Vec<Edge> = Vec::new();
        for v in 1..n {
            if !uf.connected(0, v) {
                uf.union(0, v);
                stitches.push((0, v as NodeId, 1));
            }
        }
        sections.push(stitches);
    }
    assemble(n, sections)
}

/// Streaming re-weighting: replaces every edge weight by an independent
/// uniform draw in `[1, max_weight]`, one SplitMix-derived `ChaCha8` stream
/// per edge chunk.  The canonical stream differs from
/// [`crate::generators::with_random_weights`] (which draws sequentially), but
/// is seed- and thread-deterministic at any size.
pub fn with_random_weights(graph: &Graph, max_weight: Weight, seed: u64) -> Result<Graph> {
    if max_weight == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "max_weight must be >= 1".into(),
        });
    }
    let edges = graph.edges();
    let sections = emit_chunked(edges.len(), |c, range, out| {
        let mut rng = chunk_rng(seed, 0, c as u64);
        for i in range {
            let (u, v, _) = edges[i];
            out.push((u, v, rng.gen_range(1..=max_weight)));
        }
    });
    assemble(graph.n(), sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{MAX_EDGES, MAX_NODES};
    use crate::traversal::connected_components;

    fn assert_same(a: &Graph, b: &Graph) {
        assert_eq!(a.n(), b.n());
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn random_families_are_seed_deterministic_and_connected() {
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let n = 5000;
            let er1 = erdos_renyi(n, 6.0 / n as f64, seed).unwrap();
            let er2 = erdos_renyi(n, 6.0 / n as f64, seed).unwrap();
            assert_same(&er1, &er2);
            let (_, c) = connected_components(&er1);
            assert_eq!(c, 1, "ER not connected");

            let rgg1 = random_geometric(n, (8.0 / n as f64).sqrt(), seed).unwrap();
            let rgg2 = random_geometric(n, (8.0 / n as f64).sqrt(), seed).unwrap();
            assert_same(&rgg1, &rgg2);
            let (_, c) = connected_components(&rgg1);
            assert_eq!(c, 1, "RGG not connected");

            let cl1 = chung_lu(n, 2.5, 6.0, seed).unwrap();
            let cl2 = chung_lu(n, 2.5, 6.0, seed).unwrap();
            assert_same(&cl1, &cl2);
            let (_, c) = connected_components(&cl1);
            assert_eq!(c, 1, "Chung-Lu not connected");
        }
    }

    #[test]
    fn random_families_land_in_the_expected_density_regime() {
        let n = 20_000;
        let er = erdos_renyi(n, 6.0 / n as f64, 42).unwrap();
        let avg = 2.0 * er.m() as f64 / n as f64;
        assert!((4.0..=10.0).contains(&avg), "ER average degree {avg:.2}");

        let rgg = random_geometric(n, (8.0 / n as f64).sqrt(), 42).unwrap();
        let avg = 2.0 * rgg.m() as f64 / n as f64;
        // Expected degree ≈ π·r²·n = 8π ≈ 25 (minus boundary effects).
        assert!((10.0..=40.0).contains(&avg), "RGG average degree {avg:.2}");

        let cl = chung_lu(n, 2.5, 6.0, 42).unwrap();
        let avg = 2.0 * cl.m() as f64 / n as f64;
        assert!(
            (2.0..=12.0).contains(&avg),
            "Chung-Lu average degree {avg:.2}"
        );
        // Heavy tail: the hub (node 0, maximum weight) dwarfs the average.
        let max_deg = cl.nodes().map(|v| cl.degree(v)).max().unwrap();
        assert!(max_deg as f64 >= 4.0 * avg, "no hub: {max_deg} vs {avg:.1}");
    }

    #[test]
    fn er_p_one_is_complete() {
        let g = erdos_renyi(40, 1.0, 3).unwrap();
        assert_eq!(g.m(), 40 * 39 / 2);
    }

    #[test]
    fn streamed_reweighting_is_deterministic_and_in_range() {
        let base = grid(&[50, 50]).unwrap();
        let w1 = with_random_weights(&base, 32, 9).unwrap();
        let w2 = with_random_weights(&base, 32, 9).unwrap();
        assert_same(&w1, &w2);
        assert_eq!(w1.m(), base.m());
        for (&(u, v, w), &(bu, bv, _)) in w1.edges().iter().zip(base.edges()) {
            assert_eq!((u, v), (bu, bv));
            assert!((1..=32).contains(&w));
        }
        assert!(with_random_weights(&base, 0, 9).is_err());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(path(0).is_err());
        assert!(cycle(2).is_err());
        assert!(grid(&[]).is_err());
        assert!(grid(&[0, 3]).is_err());
        assert!(tree_with_n(0, 5).is_err());
        assert!(tree_with_n(2, 0).is_err());
        assert!(fat_tree(0, 3, 2).is_err());
        assert!(ring_of_cliques(2, 4, 1).is_err());
        assert!(ring_of_cliques(4, 3, 0).is_err());
        assert!(barbell(0, 3).is_err());
        assert!(erdos_renyi(10, 1.5, 0).is_err());
        assert!(erdos_renyi(0, 0.5, 0).is_err());
        assert!(random_geometric(10, 0.0, 0).is_err());
        assert!(chung_lu(10, 1.0, 6.0, 0).is_err());
        assert!(chung_lu(10, 2.5, 0.0, 0).is_err());
    }

    #[test]
    fn oversized_requests_fail_before_emitting() {
        // Each request would need gigabytes of edges if it were emitted
        // before the size check.
        assert_eq!(
            grid(&[70_000, 70_000]).unwrap_err(),
            GraphError::TooManyNodes { n: 4_900_000_000 }
        );
        assert_eq!(
            grid(&[1 << 32, 1 << 32, 2]).unwrap_err(),
            GraphError::TooManyNodes { n: usize::MAX }
        );
        assert_eq!(
            path(MAX_NODES + 1).unwrap_err(),
            GraphError::TooManyNodes { n: MAX_NODES + 1 }
        );
        assert_eq!(
            fat_tree(4, usize::MAX, 2).unwrap_err(),
            GraphError::TooManyNodes { n: usize::MAX }
        );
        assert_eq!(
            barbell(usize::MAX / 2 + 1, 0).unwrap_err(),
            GraphError::TooManyNodes { n: usize::MAX }
        );
        // 300k nodes fit, but 3 · C(100 000, 2) edges do not.
        let err = ring_of_cliques(3, 100_000, 1).unwrap_err();
        assert!(
            matches!(err, GraphError::TooManyArcs { arcs } if arcs > 2 * MAX_EDGES),
            "{err:?}"
        );
        assert!(matches!(
            erdos_renyi(MAX_NODES + 1, 0.0, 0),
            Err(GraphError::TooManyNodes { .. })
        ));
    }
}
