//! HyperX direct-network generator.
//!
//! A HyperX (Ahn et al., SC'09) is an L-dimensional integer lattice of
//! switches, shape `S = (S_1, ..., S_L)`, where every dimension is *fully
//! connected*: two switches are cabled iff their coordinates differ in
//! exactly one dimension. Each switch hosts `T` terminal nodes.
//!
//! The paper's network is the 2-D `12x8` HyperX with `T = 7` (96 switches,
//! 672 nodes, 57.1% bisection bandwidth relative to full).

use crate::graph::{LinkClass, Topology, TopologyBuilder};
use crate::ids::{NodeId, SwitchId};
use crate::TopoMeta;

/// Quadrant of a 2-D HyperX with even dimensions, as used by the paper's
/// PARX routing (Section 3.2.1, Figure 3).
///
/// The mapping is fixed by Table 1 of the paper: small-message (minimal)
/// choices must avoid the quadrant's own half-removal rules, which pins
/// `Q0` to the top-left, `Q1` bottom-left, `Q2` bottom-right, `Q3` top-right
/// ("left" = first-dimension coordinate `x < S_1/2`, "top" = second-dimension
/// coordinate `y < S_2/2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quadrant {
    /// Left-top.
    Q0,
    /// Left-bottom.
    Q1,
    /// Right-bottom.
    Q2,
    /// Right-top.
    Q3,
}

impl Quadrant {
    /// Numeric index 0..4.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Quadrant::Q0 => 0,
            Quadrant::Q1 => 1,
            Quadrant::Q2 => 2,
            Quadrant::Q3 => 3,
        }
    }

    /// All quadrants.
    pub fn all() -> [Quadrant; 4] {
        [Quadrant::Q0, Quadrant::Q1, Quadrant::Q2, Quadrant::Q3]
    }
}

impl TryFrom<usize> for Quadrant {
    type Error = usize;

    /// Fallible inverse of [`Quadrant::index`]; the offending index is the
    /// error. A 2-D HyperX only ever has four quadrants, but callers decode
    /// indices from LID arithmetic, where out-of-range values are data.
    fn try_from(i: usize) -> Result<Quadrant, usize> {
        match i {
            0 => Ok(Quadrant::Q0),
            1 => Ok(Quadrant::Q1),
            2 => Ok(Quadrant::Q2),
            3 => Ok(Quadrant::Q3),
            _ => Err(i),
        }
    }
}

/// Lattice metadata of a generated HyperX.
#[derive(Debug, Clone)]
pub struct HyperXShape {
    /// Per-dimension extent `S_d`.
    pub shape: Vec<u32>,
    /// Terminals per switch `T`.
    pub terminals: u32,
}

impl HyperXShape {
    /// Number of dimensions `L`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.shape.len()
    }

    /// Number of switches (product of extents).
    pub fn num_switches(&self) -> usize {
        self.shape.iter().map(|&s| s as usize).product()
    }

    /// Coordinate of a switch (row-major: dimension 0 varies fastest).
    pub fn coord(&self, s: SwitchId) -> Vec<u32> {
        let mut rest = s.idx();
        self.shape
            .iter()
            .map(|&extent| {
                let c = (rest % extent as usize) as u32;
                rest /= extent as usize;
                c
            })
            .collect()
    }

    /// Switch at a coordinate.
    pub fn switch_at(&self, coord: &[u32]) -> SwitchId {
        assert_eq!(coord.len(), self.dims());
        let mut idx = 0usize;
        for (&c, &extent) in coord.iter().zip(&self.shape).rev() {
            assert!(c < extent, "coordinate out of range");
            idx = idx * extent as usize + c as usize;
        }
        SwitchId::from_idx(idx)
    }

    /// Quadrant of a switch. Errs unless the shape is 2-D with even
    /// extents — quadrants are only defined there (the paper's Table 1
    /// LID policy); callers on other shapes must pick a different LID
    /// layout rather than panic.
    pub fn quadrant(&self, s: SwitchId) -> Result<Quadrant, String> {
        if self.dims() != 2 {
            return Err(format!(
                "quadrants defined for 2-D HyperX only (shape has {} dims)",
                self.dims()
            ));
        }
        if !self.shape[0].is_multiple_of(2) || !self.shape[1].is_multiple_of(2) {
            return Err(format!(
                "quadrants require even extents (shape is {}x{})",
                self.shape[0], self.shape[1]
            ));
        }
        // The first two coordinates of `coord`, without its allocation:
        // bfo-parx asks twice per message.
        let (sx, sy) = (self.shape[0] as usize, self.shape[1] as usize);
        let (x, y) = (s.idx() % sx, s.idx() / sx % sy);
        let left = x < sx / 2;
        let top = y < sy / 2;
        Ok(match (left, top) {
            (true, true) => Quadrant::Q0,
            (true, false) => Quadrant::Q1,
            (false, false) => Quadrant::Q2,
            (false, true) => Quadrant::Q3,
        })
    }

    /// Switch a node is attached to (nodes are attached `T` per switch, in
    /// switch order).
    pub fn node_switch(&self, n: NodeId) -> SwitchId {
        SwitchId::from_idx(n.idx() / self.terminals as usize)
    }
}

/// Configuration for HyperX generation.
#[derive(Debug, Clone)]
pub struct HyperXConfig {
    /// Name stem.
    pub name: String,
    /// Per-dimension extents `S`.
    pub shape: Vec<u32>,
    /// Terminals per switch `T`.
    pub terminals: u32,
    /// Total number of nodes to attach (last switches may stay empty).
    /// Defaults to `T * prod(S)` via [`HyperXConfig::new`].
    pub total_nodes: usize,
    /// Optional 2-D rack blocking `(bx, by)`: switches within the same
    /// `bx x by` block are considered rack-internal, their cables copper.
    pub rack_block: Option<(u32, u32)>,
    /// Per-dimension link width `K_d` (Ahn et al.'s trimmed/widened HyperX):
    /// every switch pair differing in dimension `d` is joined by `K_d`
    /// parallel cables. All-ones (the default) is the plain HyperX.
    pub link_width: Vec<u32>,
}

impl HyperXConfig {
    /// Fully-populated HyperX of the given shape.
    pub fn new(shape: Vec<u32>, terminals: u32) -> Self {
        let switches: usize = shape.iter().map(|&s| s as usize).product();
        let dims = shape.len();
        HyperXConfig {
            name: format!(
                "hyperx-{}-t{terminals}",
                shape
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join("x")
            ),
            shape,
            terminals,
            total_nodes: switches * terminals as usize,
            rack_block: None,
            link_width: vec![1; dims],
        }
    }

    /// Sets per-dimension link widths (builder style). Panics if the length
    /// does not match the shape's dimensionality or any width is zero.
    pub fn with_link_width(mut self, link_width: Vec<u32>) -> Self {
        assert_eq!(
            link_width.len(),
            self.shape.len(),
            "link_width must have one entry per dimension"
        );
        assert!(
            link_width.iter().all(|&k| k >= 1),
            "link width must be >= 1"
        );
        self.link_width = link_width;
        self
    }

    /// Parses a compact spec string in the SST-merlin style:
    /// `"<S1>x<S2>[x...][:t<T>][:k<K1>x<K2>[x...]][:n<nodes>]"`.
    ///
    /// * the leading shape segment is mandatory (`12x8`),
    /// * `t<T>` sets terminals per switch (default 1),
    /// * `k<K1>x...` sets per-dimension link widths (default all 1); a
    ///   single value is broadcast across all dimensions,
    /// * `n<nodes>` caps the attached node count (default `T * prod(S)`).
    ///
    /// Example: `parse_spec("12x8:t7:k2x1")` — the paper's plane with the
    /// first dimension's cables doubled.
    pub fn parse_spec(spec: &str) -> Result<HyperXConfig, String> {
        fn parse_dims(seg: &str, what: &str) -> Result<Vec<u32>, String> {
            seg.split('x')
                .map(|p| {
                    p.parse::<u32>()
                        .ok()
                        .filter(|&v| v >= 1)
                        .ok_or_else(|| format!("bad {what} component {p:?} in segment {seg:?}"))
                })
                .collect()
        }
        let mut segs = spec.split(':');
        let shape_seg = segs.next().filter(|s| !s.is_empty()).ok_or_else(|| {
            format!("spec {spec:?}: missing shape segment (expected e.g. \"12x8\")")
        })?;
        let shape = parse_dims(shape_seg, "shape extent")?;
        let mut terminals = 1u32;
        let mut link_width: Option<Vec<u32>> = None;
        let mut total_nodes: Option<usize> = None;
        for seg in segs {
            let (tag, rest) = seg.split_at(seg.len().min(1));
            match tag {
                "t" => {
                    terminals = rest
                        .parse::<u32>()
                        .map_err(|_| format!("spec {spec:?}: bad terminal count {rest:?}"))?;
                }
                "k" => {
                    let mut k = parse_dims(rest, "link width")?;
                    if k.len() == 1 && shape.len() > 1 {
                        k = vec![k[0]; shape.len()];
                    }
                    if k.len() != shape.len() {
                        return Err(format!(
                            "spec {spec:?}: {} link widths for {} dimensions",
                            k.len(),
                            shape.len()
                        ));
                    }
                    link_width = Some(k);
                }
                "n" => {
                    total_nodes = Some(
                        rest.parse::<usize>()
                            .map_err(|_| format!("spec {spec:?}: bad node count {rest:?}"))?,
                    );
                }
                _ => return Err(format!("spec {spec:?}: unknown segment {seg:?}")),
            }
        }
        let mut cfg = HyperXConfig::new(shape, terminals);
        if let Some(k) = link_width {
            let suffix = format!(
                "-k{}",
                k.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("x")
            );
            cfg = cfg.with_link_width(k);
            cfg.name.push_str(&suffix);
        }
        if let Some(n) = total_nodes {
            let cap =
                cfg.shape.iter().map(|&s| s as usize).product::<usize>() * cfg.terminals as usize;
            if n > cap {
                return Err(format!("spec {spec:?}: {n} nodes exceed capacity {cap}"));
            }
            cfg.total_nodes = n;
        }
        Ok(cfg)
    }

    /// The paper's 12x8 2-D HyperX with 7 nodes per switch, racked as 2x2
    /// switch blocks (24 racks of 4 switches, matching Figure 2c).
    pub fn t2_hyperx(total_nodes: usize) -> Self {
        let mut c = HyperXConfig::new(vec![12, 8], 7);
        assert!(total_nodes <= 672);
        c.total_nodes = total_nodes;
        c.rack_block = Some((2, 2));
        c.name = format!("hyperx-12x8-t7-{total_nodes}");
        c
    }

    /// Rack index of a switch coordinate under the configured blocking.
    fn rack_of(&self, coord: &[u32]) -> Option<(u32, u32)> {
        let (bx, by) = self.rack_block?;
        if coord.len() != 2 {
            return None;
        }
        Some((coord[0] / bx, coord[1] / by))
    }

    /// Generates the topology.
    pub fn build(&self) -> Topology {
        let shape_meta = HyperXShape {
            shape: self.shape.clone(),
            terminals: self.terminals,
        };
        let num_switches = shape_meta.num_switches();
        assert!(
            self.total_nodes <= num_switches * self.terminals as usize,
            "too many nodes"
        );
        assert_eq!(
            self.link_width.len(),
            self.shape.len(),
            "link_width must have one entry per dimension"
        );
        assert!(
            self.link_width.iter().all(|&k| k >= 1),
            "link width must be >= 1"
        );
        let mut b = TopologyBuilder::new(self.name.clone(), num_switches);

        // Per-dimension full connectivity: for each ordered pair of switches
        // differing in exactly one dimension with coord_a < coord_b, add
        // `K_d` parallel cables.
        for s in 0..num_switches {
            let sa = SwitchId::from_idx(s);
            let ca = shape_meta.coord(sa);
            for (d, &extent) in self.shape.iter().enumerate() {
                for c2 in (ca[d] + 1)..extent {
                    let mut cb = ca.clone();
                    cb[d] = c2;
                    let sb = shape_meta.switch_at(&cb);
                    let class = match (self.rack_of(&ca), self.rack_of(&cb)) {
                        (Some(ra), Some(rb)) if ra == rb => LinkClass::Copper,
                        _ => LinkClass::Aoc,
                    };
                    for _ in 0..self.link_width[d] {
                        b.link_switches(sa, sb, class);
                    }
                }
            }
        }

        // Terminals: T per switch, in switch order.
        for n in 0..self.total_nodes {
            let sw = SwitchId::from_idx(n / self.terminals as usize);
            b.attach_node(sw);
        }

        b.meta(TopoMeta::HyperX(shape_meta)).build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LinkClass;

    #[test]
    fn fig2b_4x4_hyperx() {
        // Figure 2b: 2-D 4x4 HyperX with 32 compute nodes (T=2).
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        assert_eq!(t.num_switches(), 16);
        assert_eq!(t.num_nodes(), 32);
        // ISLs: dim0: 4 rows.. per line C(4,2)=6; 4 lines per dim, 2 dims
        // => dim0: 4*6=24, dim1: 4*6=24 => 48.
        assert_eq!(t.num_active_isl(), 48);
        assert!(t.is_connected());
        // Every switch has degree (4-1)+(4-1)=6.
        for s in t.switches() {
            assert_eq!(t.active_switch_neighbors(s).count(), 6);
        }
    }

    #[test]
    fn t2_hyperx_structure() {
        let t = HyperXConfig::t2_hyperx(672).build();
        assert_eq!(t.num_switches(), 96);
        assert_eq!(t.num_nodes(), 672);
        // ISLs: dim0 (12-line): 8 lines? No: lines along dim0 fix dim1 =>
        // 8 lines of C(12,2)=66 => 528; dim1: 12 lines of C(8,2)=28 => 336.
        assert_eq!(t.num_active_isl(), 528 + 336);
        // Every switch: 11 + 7 = 18 ISL ports + 7 terminals = 25 used ports
        // (of 36 on the Voltaire 4036).
        for s in t.switches() {
            assert_eq!(t.active_switch_neighbors(s).count(), 18);
            assert_eq!(t.attached_nodes(s).count(), 7);
        }
        assert!(t.is_connected());
    }

    #[test]
    fn t2_hyperx_rack_copper() {
        let t = HyperXConfig::t2_hyperx(672).build();
        let copper = t
            .links()
            .filter(|(_, l)| l.class == LinkClass::Copper)
            .count();
        // 24 racks (6x4 blocks of 2x2): each block has 2 dim0 + 2 dim1
        // internal cables => 96 copper; the rest of the 864 ISLs are AOC.
        assert_eq!(copper, 96);
        let aoc = t.links().filter(|(_, l)| l.class == LinkClass::Aoc).count();
        assert_eq!(aoc, 864 - 96);
    }

    #[test]
    fn coord_roundtrip() {
        let c = HyperXConfig::new(vec![12, 8], 7);
        let t = c.build();
        let hx = t.meta.as_hyperx().unwrap();
        for s in t.switches() {
            let coord = hx.coord(s);
            assert_eq!(hx.switch_at(&coord), s);
            assert!(coord[0] < 12 && coord[1] < 8);
        }
    }

    #[test]
    fn quadrant_index_roundtrip_and_bounds() {
        for q in Quadrant::all() {
            assert_eq!(Quadrant::try_from(q.index()), Ok(q));
        }
        assert_eq!(Quadrant::try_from(4), Err(4));
        assert_eq!(Quadrant::try_from(usize::MAX), Err(usize::MAX));
    }

    #[test]
    fn quadrant_mapping() {
        let t = HyperXConfig::t2_hyperx(672).build();
        let hx = t.meta.as_hyperx().unwrap();
        // Corners.
        assert_eq!(hx.quadrant(hx.switch_at(&[0, 0])), Ok(Quadrant::Q0));
        assert_eq!(hx.quadrant(hx.switch_at(&[0, 7])), Ok(Quadrant::Q1));
        assert_eq!(hx.quadrant(hx.switch_at(&[11, 7])), Ok(Quadrant::Q2));
        assert_eq!(hx.quadrant(hx.switch_at(&[11, 0])), Ok(Quadrant::Q3));
        // Quadrants are balanced: 24 switches each.
        let mut counts = [0usize; 4];
        for s in t.switches() {
            counts[hx.quadrant(s).unwrap().index()] += 1;
        }
        assert_eq!(counts, [24, 24, 24, 24]);
    }

    #[test]
    fn quadrant_rejects_unsupported_shapes() {
        // 3-D and odd-extent shapes have no quadrant decomposition; the
        // call reports why instead of panicking (fallible-constructor
        // idiom, matching `Fabric::new`).
        let t3 = HyperXConfig::new(vec![2, 2, 2], 1).build();
        let hx3 = t3.meta.as_hyperx().unwrap();
        assert!(hx3.quadrant(SwitchId(0)).unwrap_err().contains("2-D"));
        let todd = HyperXConfig::new(vec![3, 4], 1).build();
        let hxodd = todd.meta.as_hyperx().unwrap();
        assert!(hxodd.quadrant(SwitchId(0)).unwrap_err().contains("even"));
    }

    #[test]
    fn diameter_two_switch_hops() {
        // Any two switches differ in at most 2 dims => at most 2 ISL hops.
        let t = HyperXConfig::new(vec![4, 3], 1).build();
        let hx = t.meta.as_hyperx().unwrap().clone();
        for a in t.switches() {
            for bsw in t.switches() {
                let (ca, cb) = (hx.coord(a), hx.coord(bsw));
                let diff = ca.iter().zip(&cb).filter(|(x, y)| x != y).count();
                assert!(diff <= 2);
                if diff == 1 {
                    // Direct cable exists.
                    assert!(
                        t.active_switch_neighbors(a).any(|(p, _)| p == bsw),
                        "{a}->{bsw} missing"
                    );
                }
            }
        }
    }

    #[test]
    fn node_switch_mapping() {
        let t = HyperXConfig::t2_hyperx(100).build();
        let hx = t.meta.as_hyperx().unwrap().clone();
        assert_eq!(t.num_nodes(), 100);
        for n in t.nodes() {
            let (s, _) = t.node_switch(n);
            assert_eq!(hx.node_switch(n), s);
        }
    }

    #[test]
    fn widened_hyperx_doubles_dim0_cables() {
        // 4x4 with K = (2, 1): dim0 lines double their cables, dim1 stays.
        let t = HyperXConfig::new(vec![4, 4], 2)
            .with_link_width(vec![2, 1])
            .build();
        assert_eq!(t.num_switches(), 16);
        // dim0: 4 lines * C(4,2)=6 pairs * K=2 => 48; dim1: 24 * 1 => 24.
        assert_eq!(t.num_active_isl(), 48 + 24);
        assert!(t.is_connected());
        // Degree: dim0 gives (4-1)*2=6 cables, dim1 gives 3 => 9 per switch.
        for s in t.switches() {
            assert_eq!(t.active_switch_neighbors(s).count(), 9);
        }
    }

    #[test]
    fn parse_spec_paper_plane() {
        let cfg = HyperXConfig::parse_spec("12x8:t7:k2x1").unwrap();
        assert_eq!(cfg.shape, vec![12, 8]);
        assert_eq!(cfg.terminals, 7);
        assert_eq!(cfg.link_width, vec![2, 1]);
        assert_eq!(cfg.total_nodes, 672);
        assert!(cfg.name.contains("12x8") && cfg.name.ends_with("-k2x1"));
        let t = cfg.build();
        // dim0: 8*66*2=1056, dim1: 12*28*1=336.
        assert_eq!(t.num_active_isl(), 1056 + 336);
    }

    #[test]
    fn parse_spec_defaults_broadcast_and_nodes() {
        let cfg = HyperXConfig::parse_spec("6x4").unwrap();
        assert_eq!(cfg.terminals, 1);
        assert_eq!(cfg.link_width, vec![1, 1]);
        assert_eq!(cfg.total_nodes, 24);

        // A single k value is broadcast over every dimension.
        let cfg = HyperXConfig::parse_spec("3x3x3:k2").unwrap();
        assert_eq!(cfg.link_width, vec![2, 2, 2]);

        // n caps the attached nodes.
        let cfg = HyperXConfig::parse_spec("6x4:t2:n30").unwrap();
        assert_eq!(cfg.total_nodes, 30);
        assert_eq!(cfg.build().num_nodes(), 30);
    }

    #[test]
    fn parse_spec_rejects_malformed() {
        assert!(HyperXConfig::parse_spec("").is_err());
        assert!(HyperXConfig::parse_spec("12x0").is_err());
        assert!(HyperXConfig::parse_spec("12x8:t").is_err());
        assert!(HyperXConfig::parse_spec("12x8:k2x1x3").is_err());
        assert!(HyperXConfig::parse_spec("12x8:q9").is_err());
        assert!(HyperXConfig::parse_spec("6x4:t2:n100").is_err());
        assert!(HyperXConfig::parse_spec("12x8:k0x1").is_err());
    }

    #[test]
    fn one_dimensional_hyperx_is_complete_graph() {
        let t = HyperXConfig::new(vec![5], 2).build();
        assert_eq!(t.num_switches(), 5);
        assert_eq!(t.num_active_isl(), 10); // C(5,2)
        assert!(t.is_connected());
    }

    #[test]
    fn three_dimensional_hyperx() {
        let t = HyperXConfig::new(vec![3, 3, 3], 1).build();
        assert_eq!(t.num_switches(), 27);
        // Per line C(3,2)=3; lines per dim: 9; 3 dims => 81 ISLs.
        assert_eq!(t.num_active_isl(), 81);
        for s in t.switches() {
            assert_eq!(t.active_switch_neighbors(s).count(), 6); // 2+2+2
        }
    }
}
