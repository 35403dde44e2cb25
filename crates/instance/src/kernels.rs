//! Chunked scan primitives over the SoA cost lanes.
//!
//! The CSR adjacency stores costs and ids in separate contiguous lanes
//! (see [`crate::LinkSlice`]); these kernels are the shared inner loops
//! the solver hot paths run over those lanes. Each is written in the
//! explicitly chunked 4/8-lane slice style that autovectorizes on stable
//! rust — fixed-size chunk bodies with branchless lane math — and each
//! ships with a retained naive `*_reference` twin. The equivalence is
//! exact, not approximate: for every input the fast kernel returns the
//! bit-identical value (and the identical tie-breaking index) of its
//! reference, which is what lets the solvers built on top keep their
//! bitwise-equality guarantees against *their* references.
//!
//! # Input contract
//!
//! Cost lanes come from validated [`crate::Cost`] values, so kernels may
//! assume inputs are **NaN-free** and contain **no negative zero**
//! ([`crate::Cost::new`] normalizes `-0.0`). Under that contract `<` and
//! `total_cmp` induce the same order, `f64::min`/`max` are associative,
//! and `x + 0.0` is the identity — the three facts the chunked
//! reassociations below rely on. `+inf` is allowed (it is how callers
//! encode "no link"); subnormals and huge magnitudes are ordinary values.
//!
//! Accumulating sums (`assign_sum*`, the prefix in
//! [`fused_ratio_accumulate`]) are **not** reassociated: floating-point
//! addition is order-sensitive, and the references define the order
//! (ascending index). The chunking there vectorizes the per-lane selects
//! and divides while keeping the additive chain sequential.
//!
//! # NaN semantics (outside the contract)
//!
//! NaN-bearing lanes never occur through the validated constructors, but
//! the behavior on them is pinned by property tests so a refactor cannot
//! change it silently. [`fused_ratio_accumulate`] stays **bit-identical**
//! to its reference even with NaNs: the NaN poisons the sequential prefix
//! chain in both twins, so both behave exactly as if the lane ended just
//! before the first NaN (and the chunk lower-bound rejection can never
//! hide an improvement from a pre-NaN lane). [`min_argmin`] **diverges**:
//! its returned value is the minimum over the non-NaN entries either way,
//! but the within-chunk locate scan stops on a NaN that precedes the
//! minimum (reporting the NaN's index), and an all-NaN lane comes back
//! `(0, +inf)` where the reference propagates the leading NaN as
//! `(0, NaN)`.

/// First minimum of a cost lane: `(index, value)`, `None` when empty.
///
/// Ties break to the **lowest index** — matching a reference scan with a
/// strict `<` update, and hence (because CSR rows are sorted by id) the
/// "lowest id wins" rule of [`crate::Instance::cheapest_link`].
#[inline]
pub fn min_argmin(costs: &[f64]) -> Option<(usize, f64)> {
    if costs.is_empty() {
        return None;
    }
    let mut best = f64::INFINITY;
    let mut best_at = 0usize;
    let mut base = 0usize;
    let mut chunks = costs.chunks_exact(8);
    for chunk in &mut chunks {
        let c: &[f64; 8] = chunk.try_into().expect("chunks_exact(8)");
        // Tree-reduce the lane minimum (associative under the NaN-free,
        // no-negative-zero contract), then locate its first occurrence
        // only when the chunk actually improves.
        let m01 = c[0].min(c[1]);
        let m23 = c[2].min(c[3]);
        let m45 = c[4].min(c[5]);
        let m67 = c[6].min(c[7]);
        let m = m01.min(m23).min(m45.min(m67));
        if m < best {
            let mut k = 0usize;
            while c[k] > m {
                k += 1;
            }
            best = m;
            best_at = base + k;
        }
        base += 8;
    }
    for (k, &c) in chunks.remainder().iter().enumerate() {
        if c < best {
            best = c;
            best_at = base + k;
        }
    }
    // All-infinite lanes never improve on the initial `best`; the
    // reference returns the first element in that case, and so do we.
    if best.is_infinite() && costs[best_at] > best {
        best = costs[0];
        best_at = 0;
    }
    Some((best_at, best))
}

/// Naive scalar twin of [`min_argmin`].
pub fn min_argmin_reference(costs: &[f64]) -> Option<(usize, f64)> {
    let (&first, rest) = costs.split_first()?;
    let mut best = first;
    let mut best_at = 0usize;
    for (k, &c) in rest.iter().enumerate() {
        if c < best {
            best = c;
            best_at = k + 1;
        }
    }
    Some((best_at, best))
}

/// Number of leading elements `<= threshold` (a take-while count).
///
/// On an ascending-sorted lane this is the partition point — the shape
/// the JV tightness pointers advance by — but the definition (and the
/// reference) is the plain prefix count, so unsorted inputs are fine.
#[inline]
pub fn prefix_threshold_count(costs: &[f64], threshold: f64) -> usize {
    let mut n = 0usize;
    let mut chunks = costs.chunks_exact(8);
    for chunk in &mut chunks {
        let c: &[f64; 8] = chunk.try_into().expect("chunks_exact(8)");
        // Whole-chunk acceptance test via a max tree-reduction; only a
        // chunk containing the boundary falls back to the scalar tail.
        let m01 = c[0].max(c[1]);
        let m23 = c[2].max(c[3]);
        let m45 = c[4].max(c[5]);
        let m67 = c[6].max(c[7]);
        if m01.max(m23).max(m45.max(m67)) <= threshold {
            n += 8;
        } else {
            for &v in chunk {
                if v > threshold {
                    return n;
                }
                n += 1;
            }
            unreachable!("chunk max exceeded the threshold");
        }
    }
    for &v in chunks.remainder() {
        if v > threshold {
            break;
        }
        n += 1;
    }
    n
}

/// Naive scalar twin of [`prefix_threshold_count`].
pub fn prefix_threshold_count_reference(costs: &[f64], threshold: f64) -> usize {
    costs.iter().take_while(|&&c| c <= threshold).count()
}

/// The greedy star scan: over prefixes of `costs` (a facility's unserved
/// link costs, pre-sorted by `(cost, client)`), the best ratio
/// `(residual + prefix_k) / k` and the first `k` attaining it.
///
/// Returns `(f64::INFINITY, 0)` on an empty lane. The prefix sums form
/// the reference's exact sequential chain; the chunking batches the four
/// independent divides and the branchless best-tracking behind it, so
/// the adds stay on the critical path and everything else vectorizes.
#[inline]
pub fn fused_ratio_accumulate(costs: &[f64], residual: f64) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut best_k = 0usize;
    let mut prefix = 0.0f64;
    let mut k = 0usize;
    let mut chunks = costs.chunks_exact(4);
    for chunk in &mut chunks {
        let c: &[f64; 4] = chunk.try_into().expect("chunks_exact(4)");
        let p0 = prefix + c[0];
        let p1 = p0 + c[1];
        let p2 = p1 + c[2];
        let p3 = p2 + c[3];
        // Whole-chunk rejection on a one-division lower bound: costs are
        // non-negative, so `residual + p0` is the smallest numerator and
        // `k + 4` the largest denominator in the chunk, and rounded
        // division is monotone — `lb` never exceeds any lane's rounded
        // ratio. A chunk with `lb >= best` therefore cannot improve and
        // is dismissed for a quarter of the reference's division work;
        // the ratio curve bottoms out on a short prefix, so almost every
        // chunk takes this path. Improving chunks replay the reference's
        // in-order strict-`<` updates, preserving its first-k tie-break.
        let lb = (residual + p0) / (k + 4) as f64;
        if lb < best {
            let r0 = (residual + p0) / (k + 1) as f64;
            let r1 = (residual + p1) / (k + 2) as f64;
            let r2 = (residual + p2) / (k + 3) as f64;
            let r3 = (residual + p3) / (k + 4) as f64;
            if r0 < best {
                best = r0;
                best_k = k + 1;
            }
            if r1 < best {
                best = r1;
                best_k = k + 2;
            }
            if r2 < best {
                best = r2;
                best_k = k + 3;
            }
            if r3 < best {
                best = r3;
                best_k = k + 4;
            }
        }
        prefix = p3;
        k += 4;
    }
    for &c in chunks.remainder() {
        prefix += c;
        k += 1;
        let r = (residual + prefix) / k as f64;
        if r < best {
            best = r;
            best_k = k;
        }
    }
    (best, best_k)
}

/// Naive scalar twin of [`fused_ratio_accumulate`].
pub fn fused_ratio_accumulate_reference(costs: &[f64], residual: f64) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut best_k = 0usize;
    let mut prefix = 0.0f64;
    for (k, &c) in costs.iter().enumerate() {
        prefix += c;
        let ratio = (residual + prefix) / (k + 1) as f64;
        if ratio < best {
            best = ratio;
            best_k = k + 1;
        }
    }
    (best, best_k)
}

/// Stable in-place compaction of a paired `(ids, costs)` lane: drops every
/// entry whose id is `marked`, returning the new live length.
///
/// Order is preserved, so a scan over the compacted prefix visits exactly
/// the subsequence an unmarked-filtering scan of the original visits —
/// the property the greedy lazy heap needs to stay bitwise-equal while
/// its per-facility link lists shrink.
///
/// # Panics
///
/// Panics (via slice indexing) if the lanes differ in length or an id is
/// out of range of `marked`.
#[inline]
pub fn retain_unmarked(ids: &mut [u32], costs: &mut [f64], marked: &[bool]) -> usize {
    assert_eq!(ids.len(), costs.len(), "paired lanes must have equal length");
    let mut w = 0usize;
    for r in 0..ids.len() {
        let id = ids[r];
        let c = costs[r];
        // Branchless: always write at the cursor, advance only on keep.
        ids[w] = id;
        costs[w] = c;
        w += usize::from(!marked[id as usize]);
    }
    w
}

/// Naive twin of [`retain_unmarked`] (filters into fresh vectors).
pub fn retain_unmarked_reference(
    ids: &[u32],
    costs: &[f64],
    marked: &[bool],
) -> (Vec<u32>, Vec<f64>) {
    let mut out_ids = Vec::new();
    let mut out_costs = Vec::new();
    for (&id, &c) in ids.iter().zip(costs) {
        if !marked[id as usize] {
            out_ids.push(id);
            out_costs.push(c);
        }
    }
    (out_ids, out_costs)
}

/// Sequential (ascending-index) sum of a lane — the local-search
/// no-move assignment cost. The additive order is the reference's; only
/// the loads are chunked.
#[inline]
pub fn assign_sum(best: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    let mut chunks = best.chunks_exact(8);
    for chunk in &mut chunks {
        let c: &[f64; 8] = chunk.try_into().expect("chunks_exact(8)");
        for &v in c {
            acc += v;
        }
    }
    for &v in chunks.remainder() {
        acc += v;
    }
    acc
}

/// Naive twin of [`assign_sum`].
pub fn assign_sum_reference(best: &[f64]) -> f64 {
    best.iter().fold(0.0f64, |a, &v| a + v)
}

/// Local-search *drop* repricing: per client, fall back from the best to
/// the second-best service cost exactly when the dropped facility holds
/// the best; sum sequentially in ascending client order.
#[inline]
pub fn assign_sum_drop(best: &[f64], best_fac: &[u32], second: &[f64], drop: u32) -> f64 {
    let mut acc = 0.0f64;
    let n = best.len();
    let mut i = 0usize;
    while i + 8 <= n {
        let b: &[f64; 8] = best[i..i + 8].try_into().expect("chunk");
        let f: &[u32; 8] = best_fac[i..i + 8].try_into().expect("chunk");
        let s: &[f64; 8] = second[i..i + 8].try_into().expect("chunk");
        let mut v = [0.0f64; 8];
        for l in 0..8 {
            v[l] = if f[l] == drop { s[l] } else { b[l] };
        }
        for &x in &v {
            acc += x;
        }
        i += 8;
    }
    while i < n {
        acc += if best_fac[i] == drop { second[i] } else { best[i] };
        i += 1;
    }
    acc
}

/// Naive twin of [`assign_sum_drop`].
pub fn assign_sum_drop_reference(best: &[f64], best_fac: &[u32], second: &[f64], drop: u32) -> f64 {
    (0..best.len()).fold(0.0f64, |a, i| a + if best_fac[i] == drop { second[i] } else { best[i] })
}

/// Local-search *add* repricing: per client, the min of the current best
/// service cost and the candidate facility's link cost (`+inf` where the
/// candidate has no link); sequential sum in ascending client order.
#[inline]
pub fn assign_sum_add(best: &[f64], add_min: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    let n = best.len();
    let mut i = 0usize;
    while i + 8 <= n {
        let b: &[f64; 8] = best[i..i + 8].try_into().expect("chunk");
        let a: &[f64; 8] = add_min[i..i + 8].try_into().expect("chunk");
        let mut v = [0.0f64; 8];
        for l in 0..8 {
            v[l] = b[l].min(a[l]);
        }
        for &x in &v {
            acc += x;
        }
        i += 8;
    }
    while i < n {
        acc += best[i].min(add_min[i]);
        i += 1;
    }
    acc
}

/// Naive twin of [`assign_sum_add`].
pub fn assign_sum_add_reference(best: &[f64], add_min: &[f64]) -> f64 {
    best.iter().zip(add_min).fold(0.0f64, |a, (&b, &m)| a + b.min(m))
}

/// Local-search *swap* repricing: the drop fallback composed with the add
/// min, fused in one pass; sequential sum in ascending client order.
#[inline]
pub fn assign_sum_swap(
    best: &[f64],
    best_fac: &[u32],
    second: &[f64],
    drop: u32,
    add_min: &[f64],
) -> f64 {
    let mut acc = 0.0f64;
    let n = best.len();
    let mut i = 0usize;
    while i + 8 <= n {
        let b: &[f64; 8] = best[i..i + 8].try_into().expect("chunk");
        let f: &[u32; 8] = best_fac[i..i + 8].try_into().expect("chunk");
        let s: &[f64; 8] = second[i..i + 8].try_into().expect("chunk");
        let a: &[f64; 8] = add_min[i..i + 8].try_into().expect("chunk");
        let mut v = [0.0f64; 8];
        for l in 0..8 {
            let base = if f[l] == drop { s[l] } else { b[l] };
            v[l] = base.min(a[l]);
        }
        for &x in &v {
            acc += x;
        }
        i += 8;
    }
    while i < n {
        let base = if best_fac[i] == drop { second[i] } else { best[i] };
        acc += base.min(add_min[i]);
        i += 1;
    }
    acc
}

/// Naive twin of [`assign_sum_swap`].
pub fn assign_sum_swap_reference(
    best: &[f64],
    best_fac: &[u32],
    second: &[f64],
    drop: u32,
    add_min: &[f64],
) -> f64 {
    (0..best.len()).fold(0.0f64, |a, i| {
        let base = if best_fac[i] == drop { second[i] } else { best[i] };
        a + base.min(add_min[i])
    })
}

/// Min-plus inner product `min_z (a[z] + b[z])` of two equal-length
/// lanes (`+inf` when empty) — one entry of the metricity check's pair
/// matrix `E(i,k) = min_l (c_il + c_kl)`, with `+inf` marking a missing
/// link.
///
/// Eight running lane minima, tree-reduced at the end. Under the input
/// contract the sums are NaN-free and never `-0.0`, so `min` is
/// associative, the strict-`<` select equals `f64::min` bit for bit, and
/// the value is bit-identical to the sequential fold.
///
/// # Panics
///
/// Panics if the lanes differ in length.
#[inline]
pub fn min_plus_pair(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "paired lanes must have equal length");
    let mut acc = [f64::INFINITY; 8];
    let mut a_chunks = a.chunks_exact(8);
    let mut b_chunks = b.chunks_exact(8);
    for (ca, cb) in (&mut a_chunks).zip(&mut b_chunks) {
        let ca: &[f64; 8] = ca.try_into().expect("chunks_exact(8)");
        let cb: &[f64; 8] = cb.try_into().expect("chunks_exact(8)");
        for l in 0..8 {
            let v = ca[l] + cb[l];
            acc[l] = if v < acc[l] { v } else { acc[l] };
        }
    }
    let mut best =
        acc[0].min(acc[1]).min(acc[2].min(acc[3])).min(acc[4].min(acc[5]).min(acc[6].min(acc[7])));
    for (&x, &y) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
        let v = x + y;
        if v < best {
            best = v;
        }
    }
    best
}

/// Naive scalar twin of [`min_plus_pair`].
pub fn min_plus_pair_reference(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(f64::INFINITY, |m, (&x, &y)| m.min(x + y))
}

/// Min-plus row update `acc[y] = min(acc[y], shift + row[y])` — the
/// metricity check's second min-plus pass,
/// `T(i,j) = min_k (E(i,k) + c_kj)`, one pivot row at a time.
///
/// Element-wise, so it needs no scalar twin: the plain zipped loop with a
/// strict-`<` select (equal to `f64::min` under the contract) compiles to
/// packed add/min with no lane shuffles, where an explicit 8-lane body
/// over paired `chunks_exact` iterators measured twice as slow.
///
/// # Panics
///
/// Panics if the lanes differ in length.
#[inline]
pub fn min_plus_accumulate(acc: &mut [f64], row: &[f64], shift: f64) {
    assert_eq!(acc.len(), row.len(), "paired lanes must have equal length");
    for (a, &r) in acc.iter_mut().zip(row) {
        let v = shift + r;
        *a = if v < *a { v } else { *a };
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Deterministic pseudo-random lane without pulling in a RNG: a
    /// xorshift over bit patterns mapped into a positive range.
    fn lane(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 1e3
            })
            .collect()
    }

    #[test]
    fn min_argmin_matches_reference_across_lengths() {
        for len in 0..=40 {
            for seed in 1..=5u64 {
                let costs = lane(len, seed * 31 + len as u64);
                assert_eq!(min_argmin(&costs), min_argmin_reference(&costs), "len {len}");
            }
        }
    }

    #[test]
    fn min_argmin_first_index_tie_break() {
        // The minimum appears three times; the first occurrence wins in
        // every alignment relative to the 8-lane chunks.
        for pad in 0..10 {
            let mut costs = vec![5.0; pad];
            costs.extend([2.0, 7.0, 2.0, 9.0, 2.0]);
            let got = min_argmin(&costs).unwrap();
            assert_eq!(got, (pad, 2.0), "pad {pad}");
            assert_eq!(Some(got), min_argmin_reference(&costs));
        }
        let all_equal = vec![3.25; 17];
        assert_eq!(min_argmin(&all_equal), Some((0, 3.25)));
    }

    #[test]
    fn min_argmin_handles_infinities_and_extremes() {
        assert_eq!(min_argmin(&[]), None);
        let all_inf = vec![f64::INFINITY; 11];
        assert_eq!(min_argmin(&all_inf), min_argmin_reference(&all_inf));
        assert_eq!(min_argmin(&all_inf), Some((0, f64::INFINITY)));
        let mixed = [f64::INFINITY, 1e308, f64::MIN_POSITIVE, 5e-324, 0.0, f64::INFINITY, 1.0, 2.0];
        assert_eq!(min_argmin(&mixed), min_argmin_reference(&mixed));
        assert_eq!(min_argmin(&mixed), Some((4, 0.0)));
    }

    #[test]
    fn prefix_threshold_count_matches_reference() {
        for len in 0..=40 {
            for seed in 1..=5u64 {
                let mut costs = lane(len, seed * 17 + len as u64);
                costs.sort_by(f64::total_cmp);
                for t in [-1.0, 0.0, 250.0, 999.0, 1e9] {
                    assert_eq!(
                        prefix_threshold_count(&costs, t),
                        prefix_threshold_count_reference(&costs, t),
                        "len {len} t {t}"
                    );
                }
            }
        }
        // Boundary inside a full chunk.
        let costs = [1.0, 2.0, 3.0, 4.0, 9.0, 5.0, 6.0, 7.0, 1.0, 1.0];
        assert_eq!(prefix_threshold_count(&costs, 8.0), 4);
        assert_eq!(
            prefix_threshold_count(&costs, 8.0),
            prefix_threshold_count_reference(&costs, 8.0)
        );
    }

    #[test]
    fn fused_ratio_accumulate_matches_reference_bitwise() {
        for len in 0..=40 {
            for seed in 1..=5u64 {
                let costs = lane(len, seed * 13 + len as u64);
                for residual in [0.0, 1.0, 123.456, 1e9] {
                    let fast = fused_ratio_accumulate(&costs, residual);
                    let slow = fused_ratio_accumulate_reference(&costs, residual);
                    assert_eq!(fast.0.to_bits(), slow.0.to_bits(), "len {len}");
                    assert_eq!(fast.1, slow.1, "len {len}");
                }
            }
        }
        assert_eq!(fused_ratio_accumulate(&[], 3.0), (f64::INFINITY, 0));
    }

    #[test]
    fn fused_ratio_accumulate_subnormal_and_huge() {
        let costs = [5e-324, 5e-324, 1e308, 5e-324, 1e308, 1e-300, 2.0, 5e-324, 1.0];
        for residual in [0.0, 5e-324, 1e308] {
            let fast = fused_ratio_accumulate(&costs, residual);
            let slow = fused_ratio_accumulate_reference(&costs, residual);
            assert_eq!(fast.0.to_bits(), slow.0.to_bits());
            assert_eq!(fast.1, slow.1);
        }
    }

    #[test]
    fn retain_unmarked_is_stable_and_complete() {
        let mut marked = vec![false; 64];
        for id in [3usize, 7, 8, 21, 40] {
            marked[id] = true;
        }
        for len in 0..=40 {
            let ids: Vec<u32> = (0..len as u32).map(|k| (k * 7) % 64).collect();
            let costs: Vec<f64> = lane(len, 99 + len as u64);
            let (ref_ids, ref_costs) = retain_unmarked_reference(&ids, &costs, &marked);
            let mut fast_ids = ids.clone();
            let mut fast_costs = costs.clone();
            let w = retain_unmarked(&mut fast_ids, &mut fast_costs, &marked);
            assert_eq!(&fast_ids[..w], &ref_ids[..], "len {len}");
            assert_eq!(&fast_costs[..w], &ref_costs[..], "len {len}");
        }
    }

    #[test]
    fn assign_sums_match_reference_bitwise() {
        for len in 0..=40 {
            let best = lane(len, 1 + len as u64);
            let second: Vec<f64> =
                lane(len, 2 + len as u64).iter().zip(&best).map(|(x, b)| b + x).collect();
            let fac: Vec<u32> = (0..len as u32).map(|k| k % 5).collect();
            let add_min: Vec<f64> = lane(len, 3 + len as u64)
                .iter()
                .enumerate()
                .map(|(k, &x)| if k % 3 == 0 { f64::INFINITY } else { x })
                .collect();
            assert_eq!(assign_sum(&best).to_bits(), assign_sum_reference(&best).to_bits());
            for drop in 0..5u32 {
                assert_eq!(
                    assign_sum_drop(&best, &fac, &second, drop).to_bits(),
                    assign_sum_drop_reference(&best, &fac, &second, drop).to_bits(),
                    "len {len} drop {drop}"
                );
                assert_eq!(
                    assign_sum_swap(&best, &fac, &second, drop, &add_min).to_bits(),
                    assign_sum_swap_reference(&best, &fac, &second, drop, &add_min).to_bits(),
                    "len {len} drop {drop}"
                );
            }
            assert_eq!(
                assign_sum_add(&best, &add_min).to_bits(),
                assign_sum_add_reference(&best, &add_min).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn assign_sums_propagate_infinity() {
        let best = vec![f64::INFINITY; 9];
        let fac = vec![0u32; 9];
        let second = vec![f64::INFINITY; 9];
        let add_min = vec![f64::INFINITY; 9];
        assert!(assign_sum(&best).is_infinite());
        assert!(assign_sum_drop(&best, &fac, &second, 0).is_infinite());
        assert!(assign_sum_swap(&best, &fac, &second, 0, &add_min).is_infinite());
    }

    #[test]
    fn min_plus_pair_matches_reference_bitwise() {
        for len in 0..=40 {
            for seed in 1..=5u64 {
                let mut a = lane(len, seed * 11 + len as u64);
                let b = lane(len, seed * 23 + len as u64);
                // Missing links (+inf) and zero costs in every alignment.
                for k in (seed as usize % 3..len).step_by(3) {
                    a[k] = if k % 2 == 0 { f64::INFINITY } else { 0.0 };
                }
                assert_eq!(
                    min_plus_pair(&a, &b).to_bits(),
                    min_plus_pair_reference(&a, &b).to_bits(),
                    "len {len}"
                );
            }
        }
        assert_eq!(min_plus_pair(&[], &[]), f64::INFINITY);
        let all_inf = vec![f64::INFINITY; 11];
        assert_eq!(min_plus_pair(&all_inf, &all_inf), f64::INFINITY);
    }

    #[test]
    fn min_argmin_nan_divergence_examples() {
        // All-NaN lane: the reference's incumbent starts at the leading
        // NaN and nothing beats it; the chunked scan never improves on
        // its +inf sentinel and the all-infinite fixup does not fire
        // (`NaN > +inf` is false), so it reports `(0, +inf)`.
        let all_nan = vec![f64::NAN; 9];
        let slow = min_argmin_reference(&all_nan).unwrap();
        assert_eq!(slow.0, 0);
        assert!(slow.1.is_nan());
        assert_eq!(min_argmin(&all_nan), Some((0, f64::INFINITY)));

        // NaN ahead of the chunk minimum: the tree-min ignores the NaN
        // (`f64::min` returns the other operand), but the locate scan
        // `while c[k] > m` stops on it — right value, NaN's index.
        let lane = [9.0, f64::NAN, 1.0, 8.0, 7.0, 6.0, 5.0, 4.0];
        assert_eq!(min_argmin_reference(&lane), Some((2, 1.0)));
        assert_eq!(min_argmin(&lane), Some((1, 1.0)));
    }

    /// NaN-aware model of the reference scan: a NaN candidate never wins
    /// a strict `<`, so the result is the first-occurrence argmin over
    /// the non-NaN entries — `None` when there are none.
    fn nan_filtered_min(costs: &[f64]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (k, &c) in costs.iter().enumerate() {
            if c.is_nan() {
                continue;
            }
            if best.is_none_or(|(_, b)| c < b) {
                best = Some((k, c));
            }
        }
        best
    }

    /// A lane mixing ordinary non-negative costs with NaNs and +inf
    /// (tags 0 and 1 of a six-way draw, so about a third of the entries
    /// are non-finite).
    fn nan_lane() -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec((0u32..6, 0u32..4000), 1..48).prop_map(|items| {
            items
                .into_iter()
                .map(|(tag, v)| match tag {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => f64::from(v) * 0.375,
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn min_argmin_reference_nan_semantics(costs in nan_lane()) {
            let slow = min_argmin_reference(&costs).unwrap();
            if costs[0].is_nan() {
                // A leading NaN is the unbeatable incumbent.
                prop_assert_eq!(slow.0, 0);
                prop_assert!(slow.1.is_nan());
            } else {
                // Otherwise NaNs are invisible to the scan.
                let model = nan_filtered_min(&costs).unwrap();
                prop_assert_eq!(slow.0, model.0);
                prop_assert_eq!(slow.1.to_bits(), model.1.to_bits());
            }
        }

        #[test]
        fn min_argmin_fast_nan_divergence_is_bounded(costs in nan_lane()) {
            let (at, val) = min_argmin(&costs).unwrap();
            match nan_filtered_min(&costs) {
                Some((model_at, model_val)) => {
                    // The value is always the non-NaN minimum, bit for
                    // bit; the index never points past its first
                    // occurrence and only differs by landing on a NaN
                    // earlier in the same chunk.
                    prop_assert_eq!(val.to_bits(), model_val.to_bits());
                    prop_assert!(at <= model_at);
                    prop_assert!(at == model_at || costs[at].is_nan());
                }
                None => {
                    // All-NaN lane: the documented (0, +inf) fallback.
                    prop_assert_eq!(at, 0);
                    prop_assert_eq!(val, f64::INFINITY);
                }
            }
        }

        #[test]
        fn fused_ratio_accumulate_bitwise_identical_with_nans(
            costs in nan_lane(),
            residual in (0u32..4000).prop_map(f64::from),
        ) {
            let fast = fused_ratio_accumulate(&costs, residual);
            let slow = fused_ratio_accumulate_reference(&costs, residual);
            prop_assert_eq!(fast.0.to_bits(), slow.0.to_bits());
            prop_assert_eq!(fast.1, slow.1);

            // And the shared semantic both implement: the poisoned
            // prefix makes every post-NaN ratio NaN, which never wins a
            // strict `<` — as if the lane ended just before the NaN.
            let cut = costs.iter().position(|c| c.is_nan()).unwrap_or(costs.len());
            let truncated = fused_ratio_accumulate_reference(&costs[..cut], residual);
            prop_assert_eq!(slow.0.to_bits(), truncated.0.to_bits());
            prop_assert_eq!(slow.1, truncated.1);
        }
    }
}
