//! Seeded input generators: one `--seed` drives the `edit_loop` edit
//! sequence and the `service_mix` request mix. The program under test
//! receives only the generated source text.

use crate::corpus::{self, Source};
use std::collections::HashSet;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5151_7e11_a5ed_0b5e)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = u64::try_from(hi - lo + 1).expect("non-empty range");
        lo + i64::try_from(self.next_u64() % span).expect("span fits i64")
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = usize::try_from(self.next_u64() % (i as u64 + 1)).expect("index fits");
            items.swap(i, j);
        }
    }
}

/// Draws constants never drawn before in this run, so every new-goal
/// edit and every fresh request really is new to the verdict store.
#[derive(Debug, Default)]
struct Fresh(HashSet<(u8, i64, i64)>);

impl Fresh {
    fn draw(
        &mut self,
        rng: &mut Rng,
        tag: u8,
        mut pick: impl FnMut(&mut Rng) -> (i64, i64),
    ) -> (i64, i64) {
        loop {
            let (a, b) = pick(rng);
            if self.0.insert((tag, a, b)) {
                return (a, b);
            }
        }
    }
}

/// One single-fragment edit of the corpus.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Swish's precondition constant: `N >= n` (valid).
    SwishPre(i64),
    /// Swish's threshold `k` in both `relax` and `relate` (valid).
    SwishK(i64),
    /// Swish's `relax` lower bound alone lowered to `k' < k` (invalid).
    SwishKRelax(i64, i64),
    /// A Water precondition conjunct `N <= n` (valid).
    WaterConj(i64),
}

impl Edit {
    /// The edited program as source text.
    pub fn source(&self) -> Source {
        match *self {
            Edit::SwishPre(n) => corpus::swish("swish", 10, 10, n),
            Edit::SwishK(k) => corpus::swish("swish", k, k, 0),
            Edit::SwishKRelax(k, k_relax) => corpus::swish("swish", k, k_relax, 0),
            Edit::WaterConj(n) => corpus::water("water", false, Some(n)),
        }
    }

    /// The corpus slot the edit replaces.
    pub fn slot(&self) -> &'static str {
        match self {
            Edit::WaterConj(_) => "water",
            _ => "swish",
        }
    }
}

/// One `edit_loop` operation: a new edit, or a revert of a slot to an
/// earlier revision (`None` is the paper's original program).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditOp {
    New(Edit),
    Revert {
        slot: &'static str,
        to: Option<Edit>,
    },
}

impl EditOp {
    /// The program the op puts in its slot.
    pub fn source(&self) -> Source {
        match self {
            EditOp::New(edit) | EditOp::Revert { to: Some(edit), .. } => edit.source(),
            EditOp::Revert { slot, to: None } => corpus::paper_corpus()
                .into_iter()
                .find(|s| s.name == *slot)
                .expect("edit slots are paper programs"),
        }
    }

    pub fn is_revert(&self) -> bool {
        matches!(self, EditOp::Revert { .. })
    }
}

/// Every `REVERT_EVERY`-th edit reverts; the rest introduce new goals.
pub const REVERT_EVERY: usize = 5;

/// The seeded `edit_loop` edit sequence.
pub struct EditGen {
    rng: Rng,
    fresh: Fresh,
    index: usize,
    /// Revisions each slot has held, oldest first (the paper's program
    /// is `None`).
    history: Vec<(&'static str, Vec<Option<Edit>>)>,
}

impl EditGen {
    pub fn new(seed: u64) -> EditGen {
        EditGen {
            rng: Rng::new(seed),
            fresh: Fresh::default(),
            index: 0,
            history: vec![("swish", vec![None]), ("water", vec![None])],
        }
    }

    fn revisions(&mut self, slot: &str) -> &mut Vec<Option<Edit>> {
        &mut self
            .history
            .iter_mut()
            .find(|(s, _)| *s == slot)
            .expect("known slot")
            .1
    }
}

impl Iterator for EditGen {
    type Item = EditOp;

    fn next(&mut self) -> Option<EditOp> {
        self.index += 1;
        if self.index.is_multiple_of(REVERT_EVERY) {
            // Revert a slot that has been edited to any revision but its
            // current one.
            let edited: Vec<&'static str> = self
                .history
                .iter()
                .filter(|(_, revs)| revs.len() > 1)
                .map(|(slot, _)| *slot)
                .collect();
            if !edited.is_empty() {
                let pick = self.rng.next_u64() as usize;
                let slot = edited[pick % edited.len()];
                let revs_len = self.revisions(slot).len();
                for _ in 0..4 {
                    let pick = self.rng.next_u64() as usize % (revs_len - 1);
                    let revs = self.revisions(slot);
                    if revs[pick] != revs[revs_len - 1] {
                        let to = revs[pick].clone();
                        revs.push(to.clone());
                        return Some(EditOp::Revert { slot, to });
                    }
                }
            }
        }
        let rng = &mut self.rng;
        let edit = match rng.next_u64() % 4 {
            0 => Edit::SwishPre(self.fresh.draw(rng, 0, |r| (r.range(1, 1_000_000), 0)).0),
            1 => Edit::SwishK(self.fresh.draw(rng, 1, |r| (r.range(11, 1_000_000), 0)).0),
            2 => {
                let (k, k_relax) = self.fresh.draw(rng, 2, |r| {
                    let k = r.range(11, 1_000_000);
                    (k, r.range(k / 2, k - 1))
                });
                Edit::SwishKRelax(k, k_relax)
            }
            _ => Edit::WaterConj(self.fresh.draw(rng, 3, |r| (r.range(1, 1_000_000), 0)).0),
        };
        self.revisions(edit.slot()).push(Some(edit.clone()));
        Some(EditOp::New(edit))
    }
}

/// What a `service_mix` request asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// One of the six paper programs, resident in the daemon's store.
    Resident(usize),
    /// Swish with a new threshold: `(k, k_relax)`, valid iff equal.
    FreshSwish(i64, i64),
    /// LU with a new error multiplier: `(c, cr)`, valid iff equal.
    FreshLu(i64, i64),
}

impl Request {
    pub fn source(&self) -> Source {
        match *self {
            Request::Resident(i) => corpus::paper_corpus().swap_remove(i),
            Request::FreshSwish(k, k_relax) => corpus::swish("swish", k, k_relax, 0),
            Request::FreshLu(c, cr) => corpus::lu("lu", Some((c, cr))),
        }
    }

    /// `resident`, `fresh_cheap` or `fresh_lu`.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Resident(_) => "resident",
            Request::FreshSwish(..) => "fresh_cheap",
            Request::FreshLu(..) => "fresh_lu",
        }
    }
}

/// Requests come in shuffled blocks of this many: the shares below are
/// exact per block.
pub const BLOCK: usize = 20;
/// Per block: fresh Swish variants. With 16 of 20 requests resident,
/// the latency p50 lies inside the resident class rather than in the tail
/// that concurrent fresh solves give it.
pub const BLOCK_FRESH_CHEAP: usize = 2;
/// Per block: fresh LU variants. At 10% of requests, the latency p95
/// falls inside the LU class rather than on its edge.
pub const BLOCK_FRESH_LU: usize = 2;

/// The seeded `service_mix` request stream.
pub struct RequestGen {
    rng: Rng,
    fresh: Fresh,
    block: Vec<Request>,
}

impl RequestGen {
    pub fn new(seed: u64) -> RequestGen {
        RequestGen {
            rng: Rng::new(seed ^ 0x5e7f_1ce0),
            fresh: Fresh::default(),
            block: Vec::new(),
        }
    }
}

impl Iterator for RequestGen {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.block.is_empty() {
            let rng = &mut self.rng;
            let mut block = Vec::with_capacity(BLOCK);
            for _ in 0..BLOCK_FRESH_CHEAP {
                let (k, k_relax) = self.fresh.draw(rng, 0, |r| {
                    let k = r.range(11, 1_000_000);
                    let valid = r.next_u64() % 2 == 0;
                    (k, if valid { k } else { r.range(k / 2, k - 1) })
                });
                block.push(Request::FreshSwish(k, k_relax));
            }
            for _ in 0..BLOCK_FRESH_LU {
                let (c, cr) = self.fresh.draw(rng, 1, |r| {
                    let c = r.range(1, 5_000);
                    let valid = r.next_u64() % 2 == 0;
                    (c, if valid { c } else { r.range(c + 1, 2 * c + 1) })
                });
                block.push(Request::FreshLu(c, cr));
            }
            while block.len() < BLOCK {
                block.push(Request::Resident((rng.next_u64() % 6) as usize));
            }
            rng.shuffle(&mut block);
            block.reverse();
            self.block = block;
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render<T: std::fmt::Debug>(items: impl Iterator<Item = T>, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for item in items.take(n) {
            out.extend_from_slice(format!("{item:?}\n").as_bytes());
        }
        out
    }

    fn render_sources<T>(
        items: impl Iterator<Item = T>,
        n: usize,
        f: impl Fn(&T) -> Source,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        for item in items.take(n) {
            let s = f(&item);
            out.extend_from_slice(
                format!("{}\n{}\n{}\n{}\n", s.name, s.program, s.pre, s.rel_pre).as_bytes(),
            );
        }
        out
    }

    #[test]
    fn the_same_seed_gives_a_byte_identical_op_sequence() {
        for seed in [0, 1, 42] {
            assert_eq!(
                render(EditGen::new(seed), 2_000),
                render(EditGen::new(seed), 2_000)
            );
            assert_eq!(
                render(RequestGen::new(seed), 2_000),
                render(RequestGen::new(seed), 2_000)
            );
            assert_eq!(
                render_sources(EditGen::new(seed), 500, EditOp::source),
                render_sources(EditGen::new(seed), 500, EditOp::source)
            );
            assert_eq!(
                render_sources(RequestGen::new(seed), 500, Request::source),
                render_sources(RequestGen::new(seed), 500, Request::source)
            );
        }
        assert_ne!(render(EditGen::new(1), 100), render(EditGen::new(2), 100));
        assert_ne!(
            render(RequestGen::new(1), 100),
            render(RequestGen::new(2), 100)
        );
    }

    #[test]
    fn shares_are_fixed() {
        let ops: Vec<EditOp> = EditGen::new(7).take(1_000).collect();
        let reverts = ops.iter().filter(|op| op.is_revert()).count();
        assert_eq!(reverts, 1_000 / REVERT_EVERY);
        let requests: Vec<Request> = RequestGen::new(7).take(BLOCK * 50).collect();
        let lu = requests.iter().filter(|r| r.kind() == "fresh_lu").count();
        let cheap = requests
            .iter()
            .filter(|r| r.kind() == "fresh_cheap")
            .count();
        assert_eq!((cheap, lu), (BLOCK_FRESH_CHEAP * 50, BLOCK_FRESH_LU * 50));
        let fresh: HashSet<String> = requests
            .iter()
            .filter(|r| r.kind() != "resident")
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(fresh.len(), cheap + lu, "fresh requests never repeat");
    }
}
