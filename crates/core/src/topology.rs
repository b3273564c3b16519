//! Device-topology graph and migration transfer costs.
//!
//! Migration between devices is not free on real fleets: the client's
//! resident state (weights, gradients, optimizer moments, KV caches) has
//! to cross an interconnect, and the interconnect is not uniform — NVLink
//! within a node, PCIe to the host, Ethernet/InfiniBand between nodes.
//! This module models the fleet as an undirected graph of [`Link`]s with
//! per-link bandwidth and resolves a transfer path between any two
//! devices as the *widest* path — the one maximizing the bottleneck
//! (per-hop minimum) bandwidth, since a bulk state copy is limited by its
//! slowest hop.
//!
//! [`Cluster::topology`](crate::cluster::Cluster::topology) installs a
//! topology; every cross-device migration is then charged
//! [`Topology::transfer_time`] of stall — the destination client does not
//! advance until its state has arrived. The default is
//! [`Topology::flat`], the old free-migration behavior, so existing runs
//! reproduce byte-identically unless a topology is asked for.
//!
//! ```
//! use tally_core::topology::{Link, Topology};
//! use tally_gpu::SimSpan;
//!
//! // Two NVLink pairs bridged by one PCIe hop: 0—1 and 2—3 fast,
//! // 1—2 slow. The 0→3 path is widest through both pairs, but its
//! // bottleneck is the PCIe hop.
//! let topo = Topology::new(4)
//!     .link(0, 1, Link::nvlink())
//!     .link(2, 3, Link::nvlink())
//!     .link(1, 2, Link::pcie());
//! assert_eq!(topo.path_bandwidth(0, 3), Some(Link::pcie().gb_per_s));
//!
//! // A 1.6 GB optimizer state over 16 GB/s stalls the client 100 ms.
//! let stall = topo.transfer_time(1_600_000_000, 0, 3).unwrap();
//! assert_eq!(stall, SimSpan::from_millis(100));
//!
//! // The flat default charges nothing, ever.
//! let free = Topology::flat(4);
//! assert_eq!(free.transfer_time(1_600_000_000, 0, 3), Some(SimSpan::ZERO));
//! ```

use std::collections::BTreeMap;

use tally_gpu::SimSpan;

/// The physical kind of an inter-device link. Purely descriptive — cost
/// resolution uses only [`Link::gb_per_s`] — but surfaced in traces and
/// useful when building presets.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LinkKind {
    /// Direct GPU-to-GPU NVLink.
    NvLink,
    /// PCIe hop (through the host root complex).
    Pcie,
    /// Node boundary (Ethernet / InfiniBand fabric).
    NodeCross,
}

/// One undirected interconnect edge with its sustained bandwidth.
///
/// ```
/// use tally_core::topology::{Link, LinkKind};
///
/// let fast = Link::nvlink();
/// assert_eq!(fast.kind, LinkKind::NvLink);
/// // Presets can be re-rated for older generations.
/// let v2 = Link::nvlink().with_bandwidth(150.0);
/// assert_eq!(v2.gb_per_s, 150.0);
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Link {
    /// Physical kind of the link.
    pub kind: LinkKind,
    /// Sustained bandwidth in gigabytes per second.
    pub gb_per_s: f64,
}

impl Link {
    /// NVLink 4.0-class direct link (300 GB/s sustained).
    pub fn nvlink() -> Link {
        Link {
            kind: LinkKind::NvLink,
            gb_per_s: 300.0,
        }
    }

    /// PCIe 4.0 x16-class hop (16 GB/s sustained).
    pub fn pcie() -> Link {
        Link {
            kind: LinkKind::Pcie,
            gb_per_s: 16.0,
        }
    }

    /// Cross-node fabric hop (100 Gb/s ≈ 12.5 GB/s sustained).
    pub fn node_cross() -> Link {
        Link {
            kind: LinkKind::NodeCross,
            gb_per_s: 12.5,
        }
    }

    /// The same kind of link at a different sustained bandwidth.
    pub fn with_bandwidth(mut self, gb_per_s: f64) -> Link {
        self.gb_per_s = gb_per_s;
        self
    }
}

/// An undirected device-interconnect graph with per-link bandwidth.
///
/// Build one with [`Topology::new`] + [`Topology::link`], or use a
/// preset: [`Topology::flat`] (every pair connected at infinite
/// bandwidth — migration costs nothing, the pre-topology behavior and
/// the [`Cluster`](crate::cluster::Cluster) default) or
/// [`Topology::dgx`] (NVLink all-to-all inside 8-GPU nodes, a shared
/// cross-node fabric between nodes).
///
/// Paths are resolved as widest paths: among all routes between two
/// devices, the one whose slowest hop is fastest. A bulk state transfer
/// pipelines through intermediate hops, so the bottleneck link is what
/// bounds it.
#[derive(Clone, Debug)]
pub struct Topology {
    devices: usize,
    flat: bool,
    /// Canonical `(lo, hi)` keys; insertion replaces.
    links: BTreeMap<(usize, usize), Link>,
}

impl Topology {
    /// An empty (no links) topology over `devices` devices. Until links
    /// are added every cross-device pair is unreachable and migration
    /// between them is refused.
    pub fn new(devices: usize) -> Topology {
        Topology {
            devices,
            flat: false,
            links: BTreeMap::new(),
        }
    }

    /// The fully connected free topology: every transfer completes
    /// instantly. This reproduces the pre-topology migration behavior
    /// and is the default for clusters that never call
    /// [`Cluster::topology`](crate::cluster::Cluster::topology).
    pub fn flat(devices: usize) -> Topology {
        Topology {
            devices,
            flat: true,
            links: BTreeMap::new(),
        }
    }

    /// A DGX-style fleet: NVLink all-to-all within each 8-GPU node,
    /// and a cross-node fabric hop between the lead GPUs of adjacent
    /// nodes. With `devices <= 8` this is a single all-NVLink node.
    pub fn dgx(devices: usize) -> Topology {
        let mut t = Topology::new(devices);
        let nodes = devices.div_ceil(8);
        for node in 0..nodes {
            let base = node * 8;
            let end = (base + 8).min(devices);
            for a in base..end {
                for b in (a + 1)..end {
                    t = t.link(a, b, Link::nvlink());
                }
            }
        }
        for node in 1..nodes {
            t = t.link((node - 1) * 8, node * 8, Link::node_cross());
        }
        t
    }

    /// Number of devices the topology spans.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Whether this is the free [`Topology::flat`] preset.
    pub fn is_flat(&self) -> bool {
        self.flat
    }

    /// Adds (or replaces) the undirected link between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics on a self-link or an out-of-range device.
    pub fn link(mut self, a: usize, b: usize, link: Link) -> Topology {
        assert!(a != b, "self-link on device {a}");
        assert!(
            a < self.devices && b < self.devices,
            "link {a}-{b} out of range for {} devices",
            self.devices
        );
        assert!(
            link.gb_per_s > 0.0 && link.gb_per_s.is_finite(),
            "link {a}-{b} bandwidth must be positive and finite, got {}",
            link.gb_per_s
        );
        self.links.insert((a.min(b), a.max(b)), link);
        self
    }

    /// The bottleneck bandwidth (GB/s) of the widest path from `from` to
    /// `to`: the route maximizing its per-hop minimum. `None` when no
    /// path exists. Same-device and flat topologies report
    /// `f64::INFINITY` (no transfer needed).
    pub fn path_bandwidth(&self, from: usize, to: usize) -> Option<f64> {
        assert!(
            from < self.devices && to < self.devices,
            "path {from}->{to} out of range for {} devices",
            self.devices
        );
        self.widest_from(from)[to]
    }

    /// [`Topology::path_bandwidth`] from `from` to every device at once:
    /// entry `to` is the widest-path bottleneck bandwidth, `None` when
    /// `to` is unreachable. One run costs O(devices² + links), the same
    /// as a single pair, so callers needing many destinations from one
    /// source should ask for the whole row. Every value is a `min` over
    /// link bandwidths, so it is exact whatever order the search visits
    /// devices in.
    ///
    /// ```
    /// use tally_core::topology::{Link, Topology};
    ///
    /// let t = Topology::new(3).link(0, 1, Link::nvlink());
    /// assert_eq!(t.widest_from(0), vec![Some(f64::INFINITY), Some(300.0), None]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn widest_from(&self, from: usize) -> Vec<Option<f64>> {
        assert!(
            from < self.devices,
            "source {from} out of range for {} devices",
            self.devices
        );
        if self.flat {
            return vec![Some(f64::INFINITY); self.devices];
        }
        let mut adjacent: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.devices];
        for (&(a, b), link) in &self.links {
            adjacent[a].push((b, link.gb_per_s));
            adjacent[b].push((a, link.gb_per_s));
        }
        // Dijkstra with max-min relaxation and a dense O(n²) selection
        // scan: fleets are at most a few hundred devices.
        let mut width = vec![0.0f64; self.devices];
        let mut done = vec![false; self.devices];
        width[from] = f64::INFINITY;
        loop {
            let mut best: Option<usize> = None;
            for d in 0..self.devices {
                if !done[d] && width[d] > 0.0 && best.is_none_or(|b| width[d] > width[b]) {
                    best = Some(d);
                }
            }
            let Some(u) = best else { break };
            done[u] = true;
            for &(v, gb_per_s) in &adjacent[u] {
                let through = width[u].min(gb_per_s);
                if through > width[v] {
                    width[v] = through;
                }
            }
        }
        // Link bandwidths are positive, so zero width means unreached.
        width.into_iter().map(|w| (w > 0.0).then_some(w)).collect()
    }

    /// Sim-time to move `bytes` of client state from `from` to `to` over
    /// the widest path: `bytes / bottleneck_bandwidth`. `Some(ZERO)` for
    /// same-device, flat topologies, or zero bytes; `None` when the
    /// devices are disconnected (the move must be refused).
    pub fn transfer_time(&self, bytes: u64, from: usize, to: usize) -> Option<SimSpan> {
        transfer_over(bytes, self.path_bandwidth(from, to))
    }
}

/// `bytes` over a path of bottleneck bandwidth `gb_per_s` (`None`:
/// unreachable). The one place a transfer stall is derived, shared by
/// [`Topology::transfer_time`] and [`RouteTable::transfer_time`].
fn transfer_over(bytes: u64, gb_per_s: Option<f64>) -> Option<SimSpan> {
    let gb_per_s = gb_per_s?;
    if bytes == 0 || gb_per_s.is_infinite() {
        return Some(SimSpan::ZERO);
    }
    // tally-lint: allow(D1-float-schedule) -- sanctioned derivation
    // (ARCHITECTURE rule D1): one division over deterministic inputs,
    // rounded to integral nanoseconds exactly once; no accumulation.
    Some(SimSpan::from_secs_f64(
        bytes as f64 / (gb_per_s * 1_000_000_000.0),
    ))
}

/// Widest-path bandwidths of one [`Topology`], memoized one source row at
/// a time: the first transfer priced from a device runs
/// [`Topology::widest_from`] once, every later one from that device is a
/// lookup. Answers equal [`Topology::transfer_time`] exactly. The flat
/// preset never fills a row.
pub(crate) struct RouteTable<'t> {
    topology: &'t Topology,
    rows: Vec<Option<Vec<Option<f64>>>>,
}

impl<'t> RouteTable<'t> {
    /// An empty table over `topology`.
    pub(crate) fn new(topology: &'t Topology) -> Self {
        RouteTable {
            topology,
            rows: vec![None; topology.devices],
        }
    }

    /// [`Topology::transfer_time`], from the memoized row of `from`.
    pub(crate) fn transfer_time(&mut self, bytes: u64, from: usize, to: usize) -> Option<SimSpan> {
        if self.topology.flat {
            return Some(SimSpan::ZERO);
        }
        let topology = self.topology;
        let row = self.rows[from].get_or_insert_with(|| topology.widest_from(from));
        transfer_over(bytes, row[to])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_always_free() {
        let t = Topology::flat(16);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(t.transfer_time(u64::MAX, a, b), Some(SimSpan::ZERO));
            }
        }
    }

    #[test]
    fn same_device_is_free_even_when_disconnected() {
        let t = Topology::new(2);
        assert_eq!(t.transfer_time(1 << 30, 1, 1), Some(SimSpan::ZERO));
        assert_eq!(t.transfer_time(1 << 30, 0, 1), None);
    }

    #[test]
    fn zero_bytes_cost_nothing_on_a_real_link() {
        let t = Topology::new(2).link(0, 1, Link::pcie());
        assert_eq!(t.transfer_time(0, 0, 1), Some(SimSpan::ZERO));
    }

    #[test]
    fn single_link_bandwidth_math() {
        let t = Topology::new(2).link(0, 1, Link::nvlink());
        // 300 GB over 300 GB/s = 1 s.
        let span = t.transfer_time(300_000_000_000, 0, 1).unwrap();
        assert_eq!(span, SimSpan::from_secs(1));
    }

    #[test]
    fn widest_path_prefers_fast_detour_over_direct_slow_link() {
        // 0—1 direct PCIe, but 0—2—1 is all NVLink.
        let t = Topology::new(3)
            .link(0, 1, Link::pcie())
            .link(0, 2, Link::nvlink())
            .link(2, 1, Link::nvlink());
        assert_eq!(t.path_bandwidth(0, 1), Some(300.0));
    }

    #[test]
    fn bottleneck_is_the_slowest_hop() {
        let t = Topology::new(3)
            .link(0, 1, Link::nvlink())
            .link(1, 2, Link::node_cross());
        assert_eq!(t.path_bandwidth(0, 2), Some(12.5));
        assert_eq!(t.path_bandwidth(2, 0), Some(12.5), "undirected");
    }

    #[test]
    fn dgx_intra_node_is_nvlink_and_cross_node_is_fabric() {
        let t = Topology::dgx(16);
        assert_eq!(t.path_bandwidth(0, 7), Some(300.0));
        assert_eq!(t.path_bandwidth(9, 15), Some(300.0));
        // Any cross-node route funnels through the 12.5 GB/s fabric hop.
        assert_eq!(t.path_bandwidth(3, 12), Some(12.5));
    }

    #[test]
    fn dgx_chain_spans_more_than_two_nodes() {
        let t = Topology::dgx(24);
        assert_eq!(t.path_bandwidth(1, 23), Some(12.5));
    }

    /// For every device, the max over all simple paths from `from` to it
    /// of the path's slowest link (`None`: no path), exhaustively over the
    /// simple-path space: `width[mask][at]` is the widest simple path from
    /// `from` visiting exactly the devices in `mask` and ending at `at`,
    /// grown one hop at a time (Held–Karp style), so every simple path is
    /// one chain of states and none is pruned.
    fn brute_force_row(t: &Topology, from: usize) -> Vec<Option<f64>> {
        let n = t.devices();
        if t.is_flat() {
            return vec![Some(f64::INFINITY); n];
        }
        assert!(n <= 16, "2^n visited sets per source");
        let mut adjacent = vec![Vec::new(); n];
        for (&(a, b), link) in &t.links {
            adjacent[a].push((b, link.gb_per_s));
            adjacent[b].push((a, link.gb_per_s));
        }
        // Zero width: no simple path ends in this state.
        let mut width = vec![0.0f64; n << n];
        width[(1 << from) * n + from] = f64::INFINITY;
        let mut best: Vec<Option<f64>> = vec![None; n];
        // Extending a path only sets bits, so masks in increasing order
        // see every state after all of its predecessors.
        for mask in 0..1usize << n {
            for at in 0..n {
                let w = width[mask * n + at];
                if w == 0.0 {
                    continue;
                }
                best[at] = Some(best[at].map_or(w, |b| b.max(w)));
                for &(next, gb_per_s) in &adjacent[at] {
                    if mask & (1 << next) == 0 {
                        let state = &mut width[(mask | 1 << next) * n + next];
                        *state = state.max(w.min(gb_per_s));
                    }
                }
            }
        }
        best
    }

    #[test]
    fn single_source_rows_match_exhaustive_path_enumeration() {
        // A 6-ring whose 0—5 link is weak: the long way round wins.
        let mut ring = Topology::new(6);
        for a in 0..5 {
            ring = ring.link(a, a + 1, Link::nvlink());
        }
        let ring = ring.link(0, 5, Link::pcie());
        // Two islands: {0, 1, 2} and {3, 4}, so cross pairs are `None`.
        let islands = Topology::new(5)
            .link(0, 1, Link::nvlink())
            .link(1, 2, Link::pcie())
            .link(0, 2, Link::node_cross())
            .link(3, 4, Link::pcie());
        let mut topologies: Vec<Topology> = [1, 8, 9, 16].into_iter().map(Topology::dgx).collect();
        topologies.extend([ring, islands, Topology::flat(5)]);
        for t in &topologies {
            for from in 0..t.devices() {
                let row = t.widest_from(from);
                assert_eq!(row, brute_force_row(t, from), "from {from} in {t:?}");
                for (to, &width) in row.iter().enumerate() {
                    assert_eq!(t.path_bandwidth(from, to), width);
                }
            }
        }
        assert_eq!(topologies[4].path_bandwidth(0, 5), Some(300.0));
        assert_eq!(topologies[5].path_bandwidth(1, 4), None);
        assert_eq!(topologies[6].widest_from(2), vec![Some(f64::INFINITY); 5]);
    }

    #[test]
    fn route_table_prices_like_the_topology() {
        let t = Topology::dgx(16)
            .link(3, 12, Link::pcie())
            .link(14, 15, Link::node_cross());
        let mut routes = RouteTable::new(&t);
        for bytes in [0, 1, 1 << 20, 7_777_777_777] {
            for from in 0..16 {
                for to in 0..16 {
                    assert_eq!(
                        routes.transfer_time(bytes, from, to),
                        t.transfer_time(bytes, from, to)
                    );
                }
            }
        }
        let disconnected = Topology::new(3).link(0, 1, Link::pcie());
        let mut routes = RouteTable::new(&disconnected);
        assert_eq!(routes.transfer_time(1, 0, 2), None);
        assert_eq!(routes.transfer_time(1, 2, 2), Some(SimSpan::ZERO));
        let flat = Topology::flat(4);
        let mut routes = RouteTable::new(&flat);
        assert_eq!(routes.transfer_time(u64::MAX, 0, 3), Some(SimSpan::ZERO));
        assert!(routes.rows.iter().all(Option::is_none), "flat fills no row");
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn self_link_panics() {
        let _ = Topology::new(2).link(1, 1, Link::pcie());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_link_panics() {
        let _ = Topology::new(2).link(0, 2, Link::pcie());
    }
}
