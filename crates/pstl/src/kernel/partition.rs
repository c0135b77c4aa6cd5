//! Partition/selection kernels: the count and compact passes behind
//! `partition`, `partition_copy`, `copy_if`, and `count_if`.
//!
//! The two-pass shape (count matches per chunk → prefix offsets →
//! scatter) already lives in the algorithm layer; what lives *here* is
//! the per-chunk inner loop of each pass:
//!
//! * **Count** is the plain `filter().count()` loop, which LLVM already
//!   turns into branch-free vector code.
//! * **Compact** walks [`COMPACT_BLOCK`]-element blocks writing
//!   candidate indices with the classic branch-free filter
//!   `idxs[k] = j; k += pred as usize;` and only then emits the `k`
//!   matching elements. The *selection* is branchless; the *emission*
//!   clones exactly the matching elements, so drop counts equal the
//!   scalar oracle's (the chaos drop-balance suite depends on that).
//!
//! Emission goes through an `FnMut(usize, &T)` sink so the kernels stay
//! entirely safe; the unsafe `SliceView::write` stays at the call site
//! in the algorithm layer where the disjointness argument lives.

use super::isa::dispatch;
use super::COMPACT_BLOCK;

dispatch! {
    /// Number of elements of `data` satisfying `pred` — the phase-1
    /// kernel of every two-pass selection and the body of `count_if` —
    /// on the CPU's [`isa::level`](super::isa::level). The body is the
    /// oracle's loop.
    pub fn count_matches[T, P: Fn(&T) -> bool + ?Sized](data: &[T], pred: &P) -> usize,
    at count_matches_at {
        count_matches_scalar(data, pred)
    }
}

/// Scalar filter-count (the oracle).
#[inline(always)]
pub fn count_matches_scalar<T, P>(data: &[T], pred: &P) -> usize
where
    P: Fn(&T) -> bool + ?Sized,
{
    data.iter().filter(|x| pred(x)).count()
}

dispatch! {
    /// Emit `(dense_rank, &elem)` for every element of `data` satisfying
    /// `pred`, in order — the scatter kernel of `copy_if` and the
    /// true-side of `partition`. `emit` receives the 0-based rank
    /// *within the matches of this slice*; callers add their chunk
    /// offset. Runs on the CPU's [`isa::level`](super::isa::level):
    /// per [`COMPACT_BLOCK`]-element block, the matching indices are
    /// collected without branching, then emitted.
    pub fn compact_each[
        T,
        P: Fn(&T) -> bool + ?Sized,
        E: FnMut(usize, &T) + ?Sized,
    ](data: &[T], pred: &P, emit: &mut E), at compact_each_at {
        let mut idxs = [0usize; COMPACT_BLOCK];
        let mut rank = 0usize;
        for block in data.chunks(COMPACT_BLOCK) {
            let mut k = 0usize;
            for (j, x) in block.iter().enumerate() {
                idxs[k] = j;
                k += pred(x) as usize;
            }
            for &j in &idxs[..k] {
                emit(rank, &block[j]);
                rank += 1;
            }
        }
    }
}

/// Scalar filter-emit (the oracle).
#[inline]
pub fn compact_each_scalar<T, P, E>(data: &[T], pred: &P, emit: &mut E)
where
    P: Fn(&T) -> bool + ?Sized,
    E: FnMut(usize, &T) + ?Sized,
{
    for (rank, x) in data.iter().filter(|x| pred(x)).enumerate() {
        emit(rank, x);
    }
}

dispatch! {
    /// Emit every element of `data` to `emit_true` or `emit_false` with
    /// its dense rank on that side, preserving relative order on both
    /// sides — the scatter kernel of `partition` / `partition_copy` — on
    /// the CPU's [`isa::level`](super::isa::level). Per block, the
    /// true-index and false-index lists are built without branching,
    /// then each side is emitted in order.
    pub fn split_each[
        T,
        P: Fn(&T) -> bool + ?Sized,
        E: FnMut(usize, &T) + ?Sized,
        G: FnMut(usize, &T) + ?Sized,
    ](data: &[T], pred: &P, emit_true: &mut E, emit_false: &mut G), at split_each_at {
        let mut ti = [0usize; COMPACT_BLOCK];
        let mut fi = [0usize; COMPACT_BLOCK];
        let (mut t, mut f) = (0usize, 0usize);
        for block in data.chunks(COMPACT_BLOCK) {
            let (mut kt, mut kf) = (0usize, 0usize);
            for (j, x) in block.iter().enumerate() {
                let p = pred(x);
                ti[kt] = j;
                kt += p as usize;
                fi[kf] = j;
                kf += !p as usize;
            }
            for &j in &ti[..kt] {
                emit_true(t, &block[j]);
                t += 1;
            }
            for &j in &fi[..kf] {
                emit_false(f, &block[j]);
                f += 1;
            }
        }
    }
}

/// Scalar per-element branch (the oracle).
#[inline]
pub fn split_each_scalar<T, P, E, G>(data: &[T], pred: &P, emit_true: &mut E, emit_false: &mut G)
where
    P: Fn(&T) -> bool + ?Sized,
    E: FnMut(usize, &T) + ?Sized,
    G: FnMut(usize, &T) + ?Sized,
{
    let (mut t, mut f) = (0usize, 0usize);
    for x in data {
        if pred(x) {
            emit_true(t, x);
            t += 1;
        } else {
            emit_false(f, x);
            f += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| i.wrapping_mul(2654435761) % 100)
            .collect()
    }

    #[test]
    fn count_matches_oracle() {
        for n in [0usize, 1, 3, 4, 5, 63, 64, 65, 1000] {
            let data = mixed(n);
            let pred = |x: &u64| x.is_multiple_of(3);
            assert_eq!(
                count_matches(&data, &pred),
                count_matches_scalar(&data, &pred),
                "n={n}"
            );
        }
    }

    #[test]
    fn compact_matches_oracle_and_preserves_order() {
        for n in [0usize, 1, 63, 64, 65, 128, 1000] {
            let data = mixed(n);
            let pred = |x: &u64| x.is_multiple_of(3);
            let mut a: Vec<(usize, u64)> = Vec::new();
            let mut b: Vec<(usize, u64)> = Vec::new();
            compact_each_scalar(&data, &pred, &mut |r, x| a.push((r, *x)));
            compact_each(&data, &pred, &mut |r, x| b.push((r, *x)));
            assert_eq!(a, b, "n={n}");
            assert!(a.iter().enumerate().all(|(i, (r, _))| i == *r));
        }
    }

    #[test]
    fn split_matches_oracle_and_is_stable() {
        for n in [0usize, 1, 63, 64, 65, 500] {
            let data = mixed(n);
            let pred = |x: &u64| *x < 50;
            let (mut at, mut af) = (Vec::new(), Vec::new());
            let (mut bt, mut bf) = (Vec::new(), Vec::new());
            split_each_scalar(&data, &pred, &mut |r, x| at.push((r, *x)), &mut |r, x| {
                af.push((r, *x))
            });
            split_each(&data, &pred, &mut |r, x| bt.push((r, *x)), &mut |r, x| {
                bf.push((r, *x))
            });
            assert_eq!(at, bt, "true side n={n}");
            assert_eq!(af, bf, "false side n={n}");
            assert_eq!(at.len() + af.len(), n);
        }
    }

    #[test]
    fn all_true_and_all_false_edges() {
        let data = mixed(130);
        let yes = |_: &u64| true;
        let no = |_: &u64| false;
        assert_eq!(count_matches(&data, &yes), 130);
        assert_eq!(count_matches(&data, &no), 0);
        let mut got = Vec::new();
        compact_each(&data, &yes, &mut |_, x| got.push(*x));
        assert_eq!(got, data);
        got.clear();
        compact_each(&data, &no, &mut |_, x| got.push(*x));
        assert!(got.is_empty());
    }
}
