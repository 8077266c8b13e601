//! The five evaluated combinations of topology, routing and resource
//! allocation (paper Section 4.4.3).

use hxmpi::Pml;

/// A (topology, routing, placement) combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Combo {
    /// (1) Fat-Tree, ftree routing, linear placement — the baseline.
    FtFtreeLinear,
    /// (2) Fat-Tree, SSSP routing, clustered placement.
    FtSsspClustered,
    /// (3) HyperX, DFSSSP routing, linear placement.
    HxDfssspLinear,
    /// (4) HyperX, DFSSSP routing, random placement.
    HxDfssspRandom,
    /// (5) HyperX, PARX routing, clustered placement.
    HxParxClustered,
}

/// Placement scheme of a combo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Sequential rank-to-node assignment.
    Linear,
    /// Geometric-stride fragmentation (p = 0.8).
    Clustered,
    /// Seeded random assignment.
    Random,
}

impl Combo {
    /// All five combos in the paper's order.
    pub fn all() -> [Combo; 5] {
        [
            Combo::FtFtreeLinear,
            Combo::FtSsspClustered,
            Combo::HxDfssspLinear,
            Combo::HxDfssspRandom,
            Combo::HxParxClustered,
        ]
    }

    /// Label as printed in the figures.
    pub fn label(&self) -> &'static str {
        match self {
            Combo::FtFtreeLinear => "Fat-Tree / ftree / linear",
            Combo::FtSsspClustered => "Fat-Tree / SSSP / clustered",
            Combo::HxDfssspLinear => "HyperX / DFSSSP / linear",
            Combo::HxDfssspRandom => "HyperX / DFSSSP / random",
            Combo::HxParxClustered => "HyperX / PARX / clustered",
        }
    }

    /// Short label for table columns.
    pub fn short(&self) -> &'static str {
        match self {
            Combo::FtFtreeLinear => "FT/ftree/lin",
            Combo::FtSsspClustered => "FT/SSSP/clu",
            Combo::HxDfssspLinear => "HX/DFSSSP/lin",
            Combo::HxDfssspRandom => "HX/DFSSSP/rnd",
            Combo::HxParxClustered => "HX/PARX/clu",
        }
    }

    /// Rank placement scheme.
    pub fn scheme(&self) -> Scheme {
        match self {
            Combo::FtFtreeLinear | Combo::HxDfssspLinear => Scheme::Linear,
            Combo::FtSsspClustered | Combo::HxParxClustered => Scheme::Clustered,
            Combo::HxDfssspRandom => Scheme::Random,
        }
    }

    /// Messaging layer: PARX uses the modified bfo PML, everything else the
    /// stock ob1.
    pub fn pml(&self) -> Pml {
        match self {
            Combo::HxParxClustered => Pml::parx(),
            _ => Pml::Ob1,
        }
    }

    /// The baseline all gains are computed against.
    pub fn baseline() -> Combo {
        Combo::FtFtreeLinear
    }

    /// Index of the routing plane this combo resolves against in the
    /// [`crate::system::System`] assembled by [`crate::T2hx`]: the four
    /// routing states in `(ftree, sssp, dfsssp, parx)` order — the two
    /// DFSSSP combos share a plane and differ only in placement.
    pub fn plane(&self) -> usize {
        match self {
            Combo::FtFtreeLinear => 0,
            Combo::FtSsspClustered => 1,
            Combo::HxDfssspLinear | Combo::HxDfssspRandom => 2,
            Combo::HxParxClustered => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_combos_fixed_order() {
        let all = Combo::all();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0], Combo::baseline());
        assert_eq!(all[0].label(), "Fat-Tree / ftree / linear");
    }

    #[test]
    fn plane_assignment() {
        // Planes 0 and 1 are the Fat-Tree's routing states, 2 and 3 the
        // HyperX's; the two DFSSSP combos share one.
        let planes = Combo::all().map(|c| c.plane());
        assert_eq!(planes, [0, 1, 2, 2, 3]);
    }

    #[test]
    fn schemes_match_paper() {
        assert_eq!(Combo::FtFtreeLinear.scheme(), Scheme::Linear);
        assert_eq!(Combo::FtSsspClustered.scheme(), Scheme::Clustered);
        assert_eq!(Combo::HxDfssspLinear.scheme(), Scheme::Linear);
        assert_eq!(Combo::HxDfssspRandom.scheme(), Scheme::Random);
        assert_eq!(Combo::HxParxClustered.scheme(), Scheme::Clustered);
    }

    #[test]
    fn only_parx_pays_bfo() {
        for c in Combo::all() {
            assert_eq!(
                c.pml().is_bfo(),
                c == Combo::HxParxClustered,
                "{}",
                c.label()
            );
        }
    }
}
