//! The paper's Table 1: which virtual destination LID index `x` a sender
//! must address, given the source and destination quadrants and the message
//! size class.
//!
//! Small messages (Table 1a) pick a LID whose link-removal rule leaves the
//! source-to-destination minimal paths untouched; large messages (Table 1b)
//! pick a LID whose rule forces traffic off the congested direct links
//! (Figure 3b/3c). Where two choices exist the modified bfo PML selects one
//! at random (Section 3.2.4).

use hxtopo::hyperx::Quadrant;

/// Message size classification against the paper's 512-byte threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeClass {
    /// `< threshold` — latency-bound, minimal paths.
    Small,
    /// `>= threshold` — bandwidth-bound, non-minimal paths allowed.
    Large,
}

/// The paper's default small/large threshold in bytes (Section 3.2.4:
/// determined with Multi-PingPong and mpiGraph on the QDR hardware).
pub const DEFAULT_THRESHOLD: u64 = 512;

impl SizeClass {
    /// Classifies a message size against a threshold.
    #[inline]
    pub fn of(bytes: u64, threshold: u64) -> SizeClass {
        if bytes < threshold {
            SizeClass::Small
        } else {
            SizeClass::Large
        }
    }
}

/// Table 1a — LID index choices for small messages, `[src][dst]`.
const SMALL: [[&[u8]; 4]; 4] = [
    // src Q0
    [&[1, 3], &[1], &[0, 2], &[3]],
    // src Q1
    [&[1], &[1, 2], &[2], &[0, 3]],
    // src Q2
    [&[1, 3], &[2], &[0, 2], &[0]],
    // src Q3
    [&[3], &[1, 2], &[0], &[0, 3]],
];

/// Table 1b — LID index choices for large messages, `[src][dst]`.
const LARGE: [[&[u8]; 4]; 4] = [
    // src Q0
    [&[0, 2], &[0], &[0, 2], &[2]],
    // src Q1
    [&[0], &[0, 3], &[3], &[0, 3]],
    // src Q2
    [&[1, 3], &[3], &[1, 3], &[1]],
    // src Q3
    [&[2], &[1, 2], &[1], &[1, 2]],
];

/// Valid LID indices for a `(source, destination, size)` combination.
pub fn lid_choices(src: Quadrant, dst: Quadrant, size: SizeClass) -> &'static [u8] {
    let table = match size {
        SizeClass::Small => &SMALL,
        SizeClass::Large => &LARGE,
    };
    table[src.index()][dst.index()]
}

/// Deterministically selects one of the valid LID indices using a caller
/// supplied discriminator (e.g. a message sequence number); stands in for
/// the PML's random pick so simulations stay reproducible.
pub fn select_lid(src: Quadrant, dst: Quadrant, size: SizeClass, discriminator: u64) -> u8 {
    let choices = lid_choices(src, dst, size);
    choices[(discriminator % choices.len() as u64) as usize]
}

/// The link-removal rule behind LID index `x` (rules R1–R4 of Section
/// 3.2.1, generalized to any even-extent L-dimensional HyperX): routing
/// towards the LID ignores every cable whose endpoints both lie in one half
/// of one dimension. On a 2-D HyperX LID0–LID3 remove the left, right, top
/// and bottom half, the paper's R1–R4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HalfRule {
    /// Dimension index.
    pub dim: usize,
    /// `false` = lower half (`coord < extent/2`), `true` = upper half.
    pub upper: bool,
}

impl HalfRule {
    /// Rule encoded by LID index `x = 2*dim + upper` on a `dims`-dimensional
    /// HyperX. `None` past the `2*dims` rules: a larger LID space must not
    /// abort the sweep that asks.
    pub fn of_lid(x: u8, dims: usize) -> Option<HalfRule> {
        let dim = (x / 2) as usize;
        (dim < dims).then_some(HalfRule {
            dim,
            upper: x % 2 == 1,
        })
    }

    /// Whether a switch coordinate lies inside the removed half.
    pub fn contains(&self, coord: &[u32], shape: &[u32]) -> bool {
        let half = shape[self.dim] / 2;
        if self.upper {
            coord[self.dim] >= half
        } else {
            coord[self.dim] < half
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxtopo::hyperx::HyperXConfig;
    use hxtopo::hyperx::Quadrant::*;
    use hxtopo::SwitchId;

    #[test]
    fn size_classification() {
        assert_eq!(SizeClass::of(0, DEFAULT_THRESHOLD), SizeClass::Small);
        assert_eq!(SizeClass::of(511, DEFAULT_THRESHOLD), SizeClass::Small);
        assert_eq!(SizeClass::of(512, DEFAULT_THRESHOLD), SizeClass::Large);
        assert_eq!(SizeClass::of(1 << 20, DEFAULT_THRESHOLD), SizeClass::Large);
    }

    #[test]
    fn table_matches_paper_cells() {
        // Spot-check every cell of Table 1a and 1b against the paper.
        assert_eq!(lid_choices(Q0, Q0, SizeClass::Small), &[1, 3]);
        assert_eq!(lid_choices(Q0, Q1, SizeClass::Small), &[1]);
        assert_eq!(lid_choices(Q0, Q2, SizeClass::Small), &[0, 2]);
        assert_eq!(lid_choices(Q0, Q3, SizeClass::Small), &[3]);
        assert_eq!(lid_choices(Q1, Q0, SizeClass::Small), &[1]);
        assert_eq!(lid_choices(Q1, Q1, SizeClass::Small), &[1, 2]);
        assert_eq!(lid_choices(Q1, Q2, SizeClass::Small), &[2]);
        assert_eq!(lid_choices(Q1, Q3, SizeClass::Small), &[0, 3]);
        assert_eq!(lid_choices(Q2, Q0, SizeClass::Small), &[1, 3]);
        assert_eq!(lid_choices(Q2, Q1, SizeClass::Small), &[2]);
        assert_eq!(lid_choices(Q2, Q2, SizeClass::Small), &[0, 2]);
        assert_eq!(lid_choices(Q2, Q3, SizeClass::Small), &[0]);
        assert_eq!(lid_choices(Q3, Q0, SizeClass::Small), &[3]);
        assert_eq!(lid_choices(Q3, Q1, SizeClass::Small), &[1, 2]);
        assert_eq!(lid_choices(Q3, Q2, SizeClass::Small), &[0]);
        assert_eq!(lid_choices(Q3, Q3, SizeClass::Small), &[0, 3]);

        assert_eq!(lid_choices(Q0, Q0, SizeClass::Large), &[0, 2]);
        assert_eq!(lid_choices(Q0, Q1, SizeClass::Large), &[0]);
        assert_eq!(lid_choices(Q0, Q2, SizeClass::Large), &[0, 2]);
        assert_eq!(lid_choices(Q0, Q3, SizeClass::Large), &[2]);
        assert_eq!(lid_choices(Q1, Q0, SizeClass::Large), &[0]);
        assert_eq!(lid_choices(Q1, Q1, SizeClass::Large), &[0, 3]);
        assert_eq!(lid_choices(Q1, Q2, SizeClass::Large), &[3]);
        assert_eq!(lid_choices(Q1, Q3, SizeClass::Large), &[0, 3]);
        assert_eq!(lid_choices(Q2, Q0, SizeClass::Large), &[1, 3]);
        assert_eq!(lid_choices(Q2, Q1, SizeClass::Large), &[3]);
        assert_eq!(lid_choices(Q2, Q2, SizeClass::Large), &[1, 3]);
        assert_eq!(lid_choices(Q2, Q3, SizeClass::Large), &[1]);
        assert_eq!(lid_choices(Q3, Q0, SizeClass::Large), &[2]);
        assert_eq!(lid_choices(Q3, Q1, SizeClass::Large), &[1, 2]);
        assert_eq!(lid_choices(Q3, Q2, SizeClass::Large), &[1]);
        assert_eq!(lid_choices(Q3, Q3, SizeClass::Large), &[1, 2]);
    }

    /// Whether LID `x`'s rule removes the half holding quadrant `q`, read
    /// off the 2x2 HyperX, whose four switches are one per quadrant.
    fn removes(x: u8, q: Quadrant) -> bool {
        let hx = HyperXConfig::new(vec![2, 2], 1).build().meta;
        let hx = hx.as_hyperx().unwrap();
        let s = (0..4)
            .map(SwitchId)
            .find(|&s| hx.quadrant(s) == Ok(q))
            .unwrap();
        HalfRule::of_lid(x, 2)
            .unwrap()
            .contains(&hx.coord(s), &hx.shape)
    }

    #[test]
    fn small_choices_never_remove_src_or_dst_half() {
        // Criterion (1): small messages travel minimal paths. A sufficient
        // structural condition: the chosen rule never removes the half
        // containing the source quadrant AND never the destination's half
        // when both are in the same half (those links would be needed).
        for s in Quadrant::all() {
            for d in Quadrant::all() {
                for &x in lid_choices(s, d, SizeClass::Small) {
                    assert!(
                        !(removes(x, s) && removes(x, d)),
                        "small {s:?}->{d:?} via LID{x} removes its own half"
                    );
                }
            }
        }
    }

    #[test]
    fn large_same_quadrant_choices_force_detours() {
        // Criterion (2): for traffic within one quadrant, the large-message
        // rule removes that quadrant's half, forcing the detour of Fig. 3b.
        for q in Quadrant::all() {
            for &x in lid_choices(q, q, SizeClass::Large) {
                assert!(
                    removes(x, q),
                    "large {q:?}->{q:?} via LID{x} does not evict the quadrant"
                );
            }
        }
    }

    #[test]
    fn criterion_3_both_classes_always_available() {
        // Criterion (3): every pair has at least one small and one large
        // choice.
        for s in Quadrant::all() {
            for d in Quadrant::all() {
                assert!(!lid_choices(s, d, SizeClass::Small).is_empty());
                assert!(!lid_choices(s, d, SizeClass::Large).is_empty());
            }
        }
    }

    #[test]
    fn select_lid_deterministic_and_in_choices() {
        for s in Quadrant::all() {
            for d in Quadrant::all() {
                for sz in [SizeClass::Small, SizeClass::Large] {
                    for disc in 0..5u64 {
                        let x = select_lid(s, d, sz, disc);
                        assert!(lid_choices(s, d, sz).contains(&x));
                        assert_eq!(x, select_lid(s, d, sz, disc));
                    }
                }
            }
        }
    }

    #[test]
    fn rules_cover_all_halves() {
        // R1–R4: LID0 left, LID1 right, LID2 top, LID3 bottom.
        let halves = [[Q0, Q1], [Q2, Q3], [Q0, Q3], [Q1, Q2]];
        for (x, half) in halves.iter().enumerate() {
            for q in Quadrant::all() {
                assert_eq!(removes(x as u8, q), half.contains(&q), "LID{x} {q:?}");
            }
        }
    }

    #[test]
    fn out_of_range_lid_has_no_rule() {
        // Indices past the 2L rules carry no removal rule; the query must
        // answer None rather than aborting the sweep.
        for dims in 1..=3usize {
            for x in 0..=u8::MAX {
                let rule = HalfRule::of_lid(x, dims);
                assert_eq!(rule.is_some(), (x as usize) < 2 * dims, "LID{x}, L={dims}");
            }
        }
    }
}
