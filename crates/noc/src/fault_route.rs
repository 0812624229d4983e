//! Fault-aware routing: route around dead links, charge degraded ones.
//!
//! The healthy machine routes X-Y (dimension-ordered, deadlock-free). When a
//! [`FaultPlan`] kills links, [`FaultRouter`] precomputes per-destination
//! next-hop tables by BFS over the surviving links, with a tie-break that
//! prefers the X-Y direction order. The resulting policy degrades gracefully:
//!
//! 1. **X-Y** — with no faults the tables reproduce `Topology::xy_route`
//!    *exactly* (the tie-break picks the X-toward neighbor first, then
//!    Y-toward), so a fault-free router is byte-identical to the baseline.
//! 2. **Y-X / detour** — when the X-Y path crosses a dead link, the BFS
//!    shortest path bends around it (often the Y-X route, otherwise a
//!    one-detour path), and the extra hops are reported per route.
//! 3. **Limp** — when the healthy sub-mesh cannot connect a pair at all, the
//!    message still "limps" through its original X-Y route at
//!    [`LIMP_COST`]× per-link cost rather than being dropped: fault injection
//!    must never change functional results, only their price.
//!
//! Routes from the table are loop-free by construction (every hop strictly
//! decreases the BFS distance to the destination), which is what lets the
//! cycle-level router consume the same table hop by hop.
//!
//! Tables are indexed by **node** (router), not bank — identical on the
//! paper's mesh where every bank has its own router, smaller under
//! concentration. Fault descriptors stay in bank coordinates and are mapped
//! through [`Topology::fault_link`]; descriptors that land inside one router
//! (concentrated 2×2 blocks) are ignored, and torus wrap links — unnameable
//! by a coordinate-adjacent [`aff_sim_core::fault::LinkRef`] — are always
//! healthy.

use std::collections::VecDeque;

use aff_sim_core::fault::FaultPlan;

use crate::topology::{BankId, Link, Topology};

/// Per-link cost multiplier charged when a message must limp through a dead
/// link because no healthy path exists. Chosen heavy enough to dominate any
/// healthy detour (the longest detour on an 8×8 mesh is < 16 extra hops).
pub const LIMP_COST: u64 = 16;

/// One resolved route under faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRoute {
    /// Directed link indices (see [`Topology::link_index`]) in traversal order.
    pub links: Vec<u32>,
    /// Whether the route differs from the fault-free X-Y route.
    pub rerouted: bool,
    /// Link crossings beyond the Manhattan minimum.
    pub detour_hops: u32,
    /// Whether the pair was unreachable on healthy links and the route runs
    /// through dead ones at [`LIMP_COST`]× cost.
    pub limped: bool,
}

/// Precomputed fault-aware next-hop tables over one mesh.
#[derive(Debug, Clone)]
pub struct FaultRouter {
    topo: Topology,
    /// Per directed link: dead?
    failed: Vec<bool>,
    /// Per directed link: integer cost multiplier (1 = healthy).
    cost: Vec<u64>,
    /// `next_hop[dst * nodes + here]` = next node toward `dst`, or
    /// `u32::MAX` when `here == dst` or no healthy path exists.
    next_hop: Vec<u32>,
}

impl FaultRouter {
    /// Build tables for `topo` under `plan`. Cheap for the paper's meshes
    /// (one BFS per destination over ≤ 64 routers).
    pub fn new(topo: Topology, plan: &FaultPlan) -> Self {
        let n = topo.num_nodes() as usize;
        let mut failed = vec![false; topo.num_links()];
        let mut cost = vec![1u64; topo.num_links()];
        for l in &plan.failed_links {
            if let Some(link) = topo.fault_link(l) {
                failed[topo.link_index(link)] = true;
            }
        }
        for (l, &m) in &plan.degraded_links {
            if let Some(link) = topo.fault_link(l) {
                cost[topo.link_index(link)] = u64::from(m);
            }
        }

        let mut next_hop = vec![u32::MAX; n * n];
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        for dst in 0..n as u32 {
            // Reverse BFS from dst: dist[v] = healthy hops from v to dst.
            dist.fill(u32::MAX);
            dist[dst as usize] = 0;
            queue.clear();
            queue.push_back(dst);
            while let Some(u) = queue.pop_front() {
                let du = dist[u as usize];
                for v in topo.node_neighbors(u) {
                    let idx = topo.link_index(link_between(topo, v, u));
                    if failed[idx] || dist[v as usize] != u32::MAX {
                        continue;
                    }
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
            for here in 0..n as u32 {
                let dh = dist[here as usize];
                if here == dst || dh == u32::MAX {
                    continue;
                }
                // First candidate (in dimension-order-preferring order) that
                // is one BFS step closer over a healthy link.
                for cand in ordered_candidates(topo, here, dst) {
                    let idx = topo.link_index(link_between(topo, here, cand));
                    if !failed[idx] && dist[cand as usize] == dh - 1 {
                        next_hop[dst as usize * n + here as usize] = cand;
                        break;
                    }
                }
            }
        }
        Self {
            topo,
            failed,
            cost,
            next_hop,
        }
    }

    /// The topology the tables were built for.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The next node on the healthy route `here → dst` (node ids — equal to
    /// bank ids except under concentration), or `None` when `here == dst` or
    /// no healthy path exists (the caller limps through the geometry route).
    pub fn next_hop(&self, here: u32, dst: u32) -> Option<u32> {
        let n = self.topo.num_nodes() as usize;
        let v = self.next_hop[dst as usize * n + here as usize];
        (v != u32::MAX).then_some(v)
    }

    /// Whether the directed link with this index is dead.
    pub fn link_is_failed(&self, idx: usize) -> bool {
        self.failed[idx]
    }

    /// Integer cost multiplier of the directed link with this index
    /// (1 = healthy; [`LIMP_COST`] does **not** appear here — limping is a
    /// per-route condition, not a per-link one).
    pub fn link_cost(&self, idx: usize) -> u64 {
        self.cost[idx]
    }

    /// Resolve the full route `src → dst` (bank ids). Empty when both banks
    /// share a router (always true for `src == dst`).
    pub fn route(&self, src: BankId, dst: BankId) -> FaultRoute {
        let xy: Vec<u32> = self
            .topo
            .xy_route(src, dst)
            .into_iter()
            .map(|l| self.topo.link_index(l) as u32)
            .collect();
        let (src_node, dst_node) = (self.topo.node_of_bank(src), self.topo.node_of_bank(dst));
        if src_node == dst_node {
            return FaultRoute {
                links: xy,
                rerouted: false,
                detour_hops: 0,
                limped: false,
            };
        }
        if self.next_hop(src_node, dst_node).is_none() {
            // Unreachable on healthy links: limp through the geometry route.
            return FaultRoute {
                links: xy,
                rerouted: false,
                detour_hops: 0,
                limped: true,
            };
        }
        let mut links = Vec::with_capacity(xy.len());
        let mut cur = src_node;
        while cur != dst_node {
            // Walk cannot dead-end: next_hop exists at src and every hop
            // strictly decreases the BFS distance to dst.
            let nh = self
                .next_hop(cur, dst_node)
                .expect("next-hop table is closed under its own steps");
            links.push(self.topo.link_index(link_between(self.topo, cur, nh)) as u32);
            cur = nh;
        }
        let detour_hops = links.len() as u32 - self.topo.manhattan(src, dst);
        let rerouted = links != xy;
        FaultRoute {
            links,
            rerouted,
            detour_hops,
            limped: false,
        }
    }
}

/// The directed link between two adjacent nodes.
fn link_between(topo: Topology, from: u32, to: u32) -> Link {
    Link {
        from: topo.node_coord(from),
        to: topo.node_coord(to),
    }
}

/// Candidate next hops (nodes) from `here` toward `dst`, ordered so the
/// fault-free choice reproduces dimension-ordered routing exactly: the
/// preferred X-axis neighbor first, then the Y-axis one (both via the
/// geometry's own tie-break, wrap-aware on a torus), then the remaining
/// neighbors in E, W, S, N order.
fn ordered_candidates(topo: Topology, here: u32, dst: u32) -> Vec<u32> {
    let mut out = Vec::with_capacity(4);
    for dir in topo.preferred_dirs(here, dst) {
        if let Some(n) = topo.node_in_dir(here, dir) {
            if !out.contains(&n) {
                out.push(n);
            }
        }
    }
    for n in topo.node_neighbors(here) {
        if !out.contains(&n) {
            out.push(n);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Coord;
    use aff_sim_core::fault::LinkRef;

    fn topo() -> Topology {
        Topology::new(4, 4)
    }

    fn lr(fx: u32, fy: u32, tx: u32, ty: u32) -> LinkRef {
        LinkRef::between(fx, fy, tx, ty).expect("adjacent")
    }

    #[test]
    fn fault_free_router_reproduces_xy_exactly() {
        let t = topo();
        let r = FaultRouter::new(t, &FaultPlan::none());
        for src in 0..16 {
            for dst in 0..16 {
                let got = r.route(src, dst);
                let want: Vec<u32> = t
                    .xy_route(src, dst)
                    .into_iter()
                    .map(|l| t.link_index(l) as u32)
                    .collect();
                assert_eq!(got.links, want, "{src}->{dst}");
                assert!(!got.rerouted);
                assert!(!got.limped);
                assert_eq!(got.detour_hops, 0);
            }
        }
    }

    #[test]
    fn dead_link_on_xy_path_detours_around_it() {
        let t = topo();
        // Kill (1,0)->(2,0), the middle of the X leg of 0 -> 3.
        let plan = FaultPlan::none().fail_link(lr(1, 0, 2, 0));
        let r = FaultRouter::new(t, &plan);
        let dead = t.link_index(Link {
            from: Coord { x: 1, y: 0 },
            to: Coord { x: 2, y: 0 },
        }) as u32;
        let route = r.route(0, 3);
        assert!(route.rerouted);
        assert!(!route.limped);
        assert!(!route.links.contains(&dead), "route crosses the dead link");
        // A minimal path around a single dead X-leg link costs two extra hops.
        assert_eq!(route.detour_hops, 2);
        assert_eq!(route.links.len(), 5);
        // Pairs whose X-Y path avoids the dead link are untouched.
        let clean = r.route(4, 7);
        assert!(!clean.rerouted);
        assert_eq!(clean.detour_hops, 0);
    }

    #[test]
    fn same_row_fault_prefers_y_x_style_bend() {
        let t = topo();
        let plan = FaultPlan::none().fail_link(lr(0, 0, 1, 0));
        let r = FaultRouter::new(t, &plan);
        let route = r.route(0, 1);
        assert!(route.rerouted);
        assert_eq!(route.links.len(), 3, "one bend around: down, east, up");
        assert_eq!(route.detour_hops, 2);
    }

    #[test]
    fn isolated_source_limps_through_xy() {
        let t = topo();
        // Both outgoing links of corner (0,0) die: bank 0 cannot send.
        let plan = FaultPlan::none()
            .fail_link(lr(0, 0, 1, 0))
            .fail_link(lr(0, 0, 0, 1));
        let r = FaultRouter::new(t, &plan);
        let route = r.route(0, 5);
        assert!(route.limped);
        let want: Vec<u32> = t
            .xy_route(0, 5)
            .into_iter()
            .map(|l| t.link_index(l) as u32)
            .collect();
        assert_eq!(route.links, want, "limp takes the original X-Y route");
        // Inbound still works: (1,0)->(0,0) is alive.
        let inbound = r.route(5, 0);
        assert!(!inbound.limped);
    }

    #[test]
    fn degraded_links_change_cost_not_routes() {
        let t = topo();
        let plan = FaultPlan::none().degrade_link(lr(0, 0, 1, 0), 4);
        let r = FaultRouter::new(t, &plan);
        for src in 0..16 {
            for dst in 0..16 {
                assert!(!r.route(src, dst).rerouted, "{src}->{dst}");
            }
        }
        let idx = t.link_index(Link {
            from: Coord { x: 0, y: 0 },
            to: Coord { x: 1, y: 0 },
        });
        assert_eq!(r.link_cost(idx), 4);
        assert!(!r.link_is_failed(idx));
    }

    #[test]
    fn routes_are_loop_free_and_terminate_under_heavy_damage() {
        let t = Topology::new(5, 5);
        let cfg = aff_sim_core::config::MachineConfig {
            mesh_x: 5,
            mesh_y: 5,
            ..aff_sim_core::config::MachineConfig::paper_default()
        };
        let plan = aff_sim_core::fault::FaultPlan::seeded(
            99,
            &cfg,
            aff_sim_core::fault::FaultSpec {
                failed_links: 12,
                ..Default::default()
            },
        );
        let r = FaultRouter::new(t, &plan);
        for src in 0..25 {
            for dst in 0..25 {
                let route = r.route(src, dst);
                // Walking the links must visit each tile at most once
                // (strictly decreasing BFS distance => loop-free).
                if !route.limped {
                    assert!(route.links.len() < 25 * 2, "{src}->{dst}");
                    let mut seen = std::collections::HashSet::new();
                    for &l in &route.links {
                        assert!(seen.insert(l), "link repeated on {src}->{dst}");
                    }
                }
            }
        }
    }

    #[test]
    fn fault_free_torus_router_reproduces_geometry_routes_exactly() {
        let t = Topology::torus(4, 4);
        let r = FaultRouter::new(t, &FaultPlan::none());
        for src in 0..16 {
            for dst in 0..16 {
                let got = r.route(src, dst);
                let want: Vec<u32> = t
                    .xy_route(src, dst)
                    .into_iter()
                    .map(|l| t.link_index(l) as u32)
                    .collect();
                assert_eq!(got.links, want, "{src}->{dst}");
                assert!(!got.rerouted && !got.limped);
            }
        }
    }

    #[test]
    fn torus_detours_through_the_wrap() {
        // Kill the only direct link 0 -> 1 on a 4-wide ring; the shortest
        // healthy path goes the long way around (3 hops), not limp.
        let t = Topology::torus(4, 1);
        let plan = FaultPlan::none().fail_link(lr(0, 0, 1, 0));
        let r = FaultRouter::new(t, &plan);
        let route = r.route(0, 1);
        assert!(route.rerouted);
        assert!(!route.limped);
        assert_eq!(route.links.len(), 3);
        assert_eq!(route.detour_hops, 2);
    }

    #[test]
    fn cmesh_ignores_router_internal_faults() {
        let t = Topology::cmesh(4, 4);
        // Banks (0,0)-(1,0) share a router: this fault is internal and the
        // machine routes as if healthy.
        let plan = FaultPlan::none().fail_link(lr(0, 0, 1, 0));
        let r = FaultRouter::new(t, &plan);
        for src in 0..16 {
            for dst in 0..16 {
                let got = r.route(src, dst);
                assert!(!got.rerouted && !got.limped, "{src}->{dst}");
            }
        }
        // A fault that straddles routers does take effect.
        let plan = FaultPlan::none().fail_link(lr(1, 0, 2, 0));
        let r = FaultRouter::new(t, &plan);
        let src = t.bank_of(Coord { x: 1, y: 0 });
        let dst = t.bank_of(Coord { x: 2, y: 0 });
        let route = r.route(src, dst);
        assert!(route.rerouted);
        assert_eq!(route.detour_hops, 2);
    }

    #[test]
    fn snake_order_routes_by_coordinates_not_ids() {
        use aff_sim_core::config::BankOrder;
        let t = Topology::with_order(4, 4, BankOrder::Snake);
        // Fault named by coordinates — must hit the same wire regardless of
        // bank numbering.
        let plan = FaultPlan::none().fail_link(lr(1, 0, 2, 0));
        let r = FaultRouter::new(t, &plan);
        let src = t.bank_of(Coord { x: 0, y: 0 });
        let dst = t.bank_of(Coord { x: 3, y: 0 });
        let route = r.route(src, dst);
        assert!(route.rerouted);
        assert_eq!(route.detour_hops, 2);
    }
}
