//! Network geometry: tile coordinates, distances, and dimension-ordered
//! routes over a mesh, torus, or concentrated mesh.
//!
//! Banks are numbered row-major: bank `i` sits at `(i % mesh_x, i / mesh_x)`.
//! This is the "1D linear pattern" the paper's interleave pools map onto
//! (§4.1 Eq 1): consecutive interleave chunks go to consecutively numbered
//! banks, wrapping at `n_banks`.
//!
//! # Nodes vs banks
//!
//! Routing operates on **nodes** (routers), not banks. On a plain mesh and a
//! torus every bank has its own router, so node ids and bank ids coincide and
//! all the pre-geometry invariants (link indices, next-hop table layouts)
//! hold bit for bit. On a concentrated mesh a 2×2 block of banks shares one
//! router: `num_nodes() < num_banks()`, routes between same-router banks are
//! empty, and [`Coord`]s inside a [`Link`] are *router-grid* coordinates.

use aff_sim_core::config::{BankOrder, TopologyKind};
use aff_sim_core::fault::LinkRef;
use serde::{Deserialize, Serialize};

/// Identifier of an L3 bank / mesh tile (row-major).
pub type BankId = u32;

/// A position on the router grid. For mesh and torus geometries this is also
/// the tile/bank position; for a concentrated mesh it names a router shared
/// by a 2×2 bank block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coord {
    /// Column, `0 ..= grid_x-1`.
    pub x: u32,
    /// Row, `0 ..= grid_y-1`.
    pub y: u32,
}

/// One directed link between adjacent routers.
///
/// On a mesh, `from` and `to` always differ by exactly one in exactly one
/// coordinate. On a torus the pair may additionally be a row/column wrap
/// (`x = W-1 → 0` or the reverse); see [`Topology::link_index`] for how wrap
/// links share index slots with their coordinate-adjacent interpretation on
/// degenerate 2-wide rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Link {
    /// Source router.
    pub from: Coord,
    /// Destination router (neighbor of `from`).
    pub to: Coord,
}

/// Directions a router's output ports point at, in dense-index order.
pub const DIR_EAST: usize = 0;
/// West output port index.
pub const DIR_WEST: usize = 1;
/// South output port index.
pub const DIR_SOUTH: usize = 2;
/// North output port index.
pub const DIR_NORTH: usize = 3;

/// A rectangular grid of tiles connected as a mesh, torus, or concentrated
/// mesh, with dimension-ordered (X then Y) routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    mesh_x: u32,
    mesh_y: u32,
    order: BankOrder,
    /// Serde-defaulted (`Mesh`) so pre-geometry serialized topologies load.
    #[serde(default)]
    kind: TopologyKind,
}

/// Banks per router along each axis: 1 for mesh/torus, 2 for CMesh.
fn concentration(kind: TopologyKind) -> u32 {
    match kind {
        TopologyKind::Mesh | TopologyKind::Torus => 1,
        TopologyKind::CMesh => 2,
    }
}

impl Topology {
    /// Create an `x_dim` × `y_dim` mesh with row-major bank numbering.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(x_dim: u32, y_dim: u32) -> Self {
        Self::with_order(x_dim, y_dim, BankOrder::RowMajor)
    }

    /// Create a mesh with an explicit bank-numbering order.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn with_order(x_dim: u32, y_dim: u32, order: BankOrder) -> Self {
        Self::with_kind(x_dim, y_dim, order, TopologyKind::Mesh)
    }

    /// Create a grid with an explicit numbering order and geometry kind.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, or if `kind` is
    /// [`TopologyKind::CMesh`] and either dimension is odd (2×2 blocks must
    /// tile the grid exactly).
    pub fn with_kind(x_dim: u32, y_dim: u32, order: BankOrder, kind: TopologyKind) -> Self {
        assert!(x_dim > 0 && y_dim > 0, "degenerate mesh {x_dim}x{y_dim}");
        if kind == TopologyKind::CMesh {
            assert!(
                x_dim.is_multiple_of(2) && y_dim.is_multiple_of(2),
                "concentrated mesh needs even dimensions, got {x_dim}x{y_dim}"
            );
        }
        Self {
            mesh_x: x_dim,
            mesh_y: y_dim,
            order,
            kind,
        }
    }

    /// An `x_dim` × `y_dim` torus with row-major bank numbering.
    pub fn torus(x_dim: u32, y_dim: u32) -> Self {
        Self::with_kind(x_dim, y_dim, BankOrder::RowMajor, TopologyKind::Torus)
    }

    /// An `x_dim` × `y_dim` concentrated mesh (2×2 banks per router) with
    /// row-major bank numbering. Dimensions must be even.
    pub fn cmesh(x_dim: u32, y_dim: u32) -> Self {
        Self::with_kind(x_dim, y_dim, BankOrder::RowMajor, TopologyKind::CMesh)
    }

    /// The geometry + numbering a [`aff_sim_core::config::MachineConfig`]
    /// describes.
    pub fn for_machine(cfg: &aff_sim_core::config::MachineConfig) -> Self {
        Self::with_kind(cfg.mesh_x, cfg.mesh_y, cfg.bank_order, cfg.topology)
    }

    /// The bank-numbering order.
    pub fn order(&self) -> BankOrder {
        self.order
    }

    /// Mesh width in tiles.
    pub fn mesh_x(&self) -> u32 {
        self.mesh_x
    }

    /// Mesh height in tiles.
    pub fn mesh_y(&self) -> u32 {
        self.mesh_y
    }

    /// Router-grid width (`mesh_x` except under concentration).
    fn grid_x(&self) -> u32 {
        self.mesh_x / concentration(self.kind)
    }

    /// Router-grid height (`mesh_y` except under concentration).
    fn grid_y(&self) -> u32 {
        self.mesh_y / concentration(self.kind)
    }

    /// Total number of tiles (= L3 banks).
    pub fn num_banks(&self) -> u32 {
        self.mesh_x * self.mesh_y
    }

    /// Number of routers. Equals `num_banks()` except under concentration.
    pub fn num_nodes(&self) -> u32 {
        self.grid_x() * self.grid_y()
    }

    /// Coordinate of bank `b` on the **tile** grid under the configured
    /// numbering.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn coord_of(&self, b: BankId) -> Coord {
        assert!(b < self.num_banks(), "bank {b} out of range");
        let y = b / self.mesh_x;
        let raw_x = b % self.mesh_x;
        let x = match self.order {
            BankOrder::RowMajor => raw_x,
            BankOrder::Snake if y % 2 == 1 => self.mesh_x - 1 - raw_x,
            BankOrder::Snake => raw_x,
        };
        Coord { x, y }
    }

    /// Bank id at **tile** coordinate `c` under the configured numbering.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the mesh.
    pub fn bank_of(&self, c: Coord) -> BankId {
        assert!(
            c.x < self.mesh_x && c.y < self.mesh_y,
            "coord {c:?} outside mesh"
        );
        let x = match self.order {
            BankOrder::RowMajor => c.x,
            BankOrder::Snake if c.y % 2 == 1 => self.mesh_x - 1 - c.x,
            BankOrder::Snake => c.x,
        };
        c.y * self.mesh_x + x
    }

    /// Router serving bank `b` (identity on mesh/torus, whatever the
    /// numbering order).
    pub fn node_of_bank(&self, b: BankId) -> u32 {
        let k = concentration(self.kind);
        if k == 1 {
            assert!(b < self.num_banks(), "bank {b} out of range");
            return b;
        }
        let c = self.coord_of(b);
        (c.y / k) * self.grid_x() + (c.x / k)
    }

    /// Grid position of router `node`.
    pub fn node_coord(&self, node: u32) -> Coord {
        assert!(node < self.num_nodes(), "node {node} out of range");
        if concentration(self.kind) == 1 {
            // Node ids coincide with bank ids, including Snake numbering.
            self.coord_of(node)
        } else {
            Coord {
                x: node % self.grid_x(),
                y: node / self.grid_x(),
            }
        }
    }

    /// Router at grid position `c` (inverse of [`Self::node_coord`]).
    pub fn node_at(&self, c: Coord) -> u32 {
        assert!(
            c.x < self.grid_x() && c.y < self.grid_y(),
            "coord {c:?} outside router grid"
        );
        if concentration(self.kind) == 1 {
            self.bank_of(c)
        } else {
            c.y * self.grid_x() + c.x
        }
    }

    /// Signed per-axis step for direction `dir`, as (dx, dy) in {-1, 0, 1}.
    fn dir_step(dir: usize) -> (i64, i64) {
        match dir {
            DIR_EAST => (1, 0),
            DIR_WEST => (-1, 0),
            DIR_SOUTH => (0, 1),
            DIR_NORTH => (0, -1),
            _ => panic!("direction {dir} out of range"),
        }
    }

    /// Router one step from `node` in direction `dir`; `None` off a mesh
    /// edge or when the torus wrap would be a self-loop (1-wide ring).
    pub fn node_in_dir(&self, node: u32, dir: usize) -> Option<u32> {
        let c = self.node_coord(node);
        let (w, h) = (i64::from(self.grid_x()), i64::from(self.grid_y()));
        let (dx, dy) = Self::dir_step(dir);
        let (nx, ny) = (i64::from(c.x) + dx, i64::from(c.y) + dy);
        let (nx, ny) = match self.kind {
            TopologyKind::Mesh | TopologyKind::CMesh => {
                if nx < 0 || nx >= w || ny < 0 || ny >= h {
                    return None;
                }
                (nx, ny)
            }
            TopologyKind::Torus => ((nx + w) % w, (ny + h) % h),
        };
        let next = self.node_at(Coord {
            x: nx as u32,
            y: ny as u32,
        });
        if next == node {
            return None; // 1-wide torus ring: the wrap is a self-loop
        }
        Some(next)
    }

    /// Distinct neighbor routers of `node`, in E, W, S, N order (a 2-wide
    /// torus ring yields its opposite node once, under the east/south slot).
    pub fn node_neighbors(&self, node: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(4);
        for dir in 0..4 {
            if let Some(n) = self.node_in_dir(node, dir) {
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Hop distance on one axis of length `len`, honoring torus wrap.
    fn axis_distance(&self, a: u32, b: u32, len: u32) -> u32 {
        let d = a.abs_diff(b);
        match self.kind {
            TopologyKind::Mesh | TopologyKind::CMesh => d,
            TopologyKind::Torus => d.min(len - d),
        }
    }

    /// Hop distance between the routers serving banks `a` and `b`. On the
    /// paper's mesh this is the Manhattan distance; on a torus each axis
    /// takes the shorter way around; under concentration it is the
    /// router-grid distance (0 for same-router banks).
    pub fn manhattan(&self, a: BankId, b: BankId) -> u32 {
        let ca = self.node_coord(self.node_of_bank(a));
        let cb = self.node_coord(self.node_of_bank(b));
        self.axis_distance(ca.x, cb.x, self.grid_x())
            + self.axis_distance(ca.y, cb.y, self.grid_y())
    }

    /// The direction of the next dimension-ordered hop from router `here`
    /// toward router `dst`: X before Y, and on a torus the shorter wrap with
    /// ties broken toward east/south. `None` when already there.
    pub fn route_dir(&self, here: u32, dst: u32) -> Option<usize> {
        let c = self.node_coord(here);
        let d = self.node_coord(dst);
        if c.x != d.x {
            return Some(self.axis_dir(c.x, d.x, self.grid_x(), DIR_EAST, DIR_WEST));
        }
        if c.y != d.y {
            return Some(self.axis_dir(c.y, d.y, self.grid_y(), DIR_SOUTH, DIR_NORTH));
        }
        None
    }

    /// Pick the positive (`fwd`) or negative (`bwd`) direction along one
    /// axis. On a torus the shorter way wins and ties go forward, so the
    /// choice is deterministic for every pair.
    fn axis_dir(&self, cur: u32, dst: u32, len: u32, fwd: usize, bwd: usize) -> usize {
        match self.kind {
            TopologyKind::Mesh | TopologyKind::CMesh => {
                if dst > cur {
                    fwd
                } else {
                    bwd
                }
            }
            TopologyKind::Torus => {
                let forward = (dst + len - cur) % len;
                if forward <= len - forward {
                    fwd
                } else {
                    bwd
                }
            }
        }
    }

    /// Preferred next-hop directions from router `here` toward `dst` in
    /// dimension order: the X-toward direction first (when the X coordinates
    /// differ), then the Y-toward one — each chosen by the same torus-aware
    /// tie-break as [`Self::route_dir`]. At most two entries; empty when the
    /// routers coincide. Fault-aware BFS uses this to reproduce
    /// dimension-ordered routes exactly on a healthy machine.
    pub fn preferred_dirs(&self, here: u32, dst: u32) -> Vec<usize> {
        let c = self.node_coord(here);
        let d = self.node_coord(dst);
        let mut out = Vec::with_capacity(2);
        if c.x != d.x {
            out.push(self.axis_dir(c.x, d.x, self.grid_x(), DIR_EAST, DIR_WEST));
        }
        if c.y != d.y {
            out.push(self.axis_dir(c.y, d.y, self.grid_y(), DIR_SOUTH, DIR_NORTH));
        }
        out
    }

    /// The dimension-ordered route from `a` to `b` as a sequence of directed
    /// links: first all X moves, then all Y moves (shortest wrap on a torus).
    /// Empty when `a == b` or when both banks share a router.
    pub fn xy_route(&self, a: BankId, b: BankId) -> Vec<Link> {
        let mut cur = self.node_of_bank(a);
        let dst = self.node_of_bank(b);
        let mut links = Vec::with_capacity(self.manhattan(a, b) as usize);
        while let Some(dir) = self.route_dir(cur, dst) {
            let next = self
                .node_in_dir(cur, dir)
                .expect("route_dir only points at in-graph neighbors");
            links.push(Link {
                from: self.node_coord(cur),
                to: self.node_coord(next),
            });
            cur = next;
        }
        links
    }

    /// Direction slot a directed link occupies, preferring the
    /// coordinate-adjacent interpretation over the torus-wrap one. On a
    /// 2-wide torus ring the wrap link between a pair and the direct link the
    /// other way are physically the same wire, and this preference collapses
    /// both onto one deterministic index — routing, fault BFS, and both
    /// simulators all agree because they all come through here.
    fn link_dir(&self, link: Link) -> usize {
        let (f, t) = (link.from, link.to);
        if t.y == f.y {
            if t.x == f.x + 1 {
                return DIR_EAST;
            }
            if t.x + 1 == f.x {
                return DIR_WEST;
            }
            if self.kind == TopologyKind::Torus {
                if f.x == self.grid_x() - 1 && t.x == 0 {
                    return DIR_EAST; // east wrap
                }
                if f.x == 0 && t.x == self.grid_x() - 1 {
                    return DIR_WEST; // west wrap
                }
            }
        } else if t.x == f.x {
            if t.y == f.y + 1 {
                return DIR_SOUTH;
            }
            if t.y + 1 == f.y {
                return DIR_NORTH;
            }
            if self.kind == TopologyKind::Torus {
                if f.y == self.grid_y() - 1 && t.y == 0 {
                    return DIR_SOUTH; // south wrap
                }
                if f.y == 0 && t.y == self.grid_y() - 1 {
                    return DIR_NORTH; // north wrap
                }
            }
        }
        panic!("link {link:?} does not connect neighbors on this geometry");
    }

    /// Dense index of a directed link, for per-link accumulation arrays.
    /// Valid indices are `0 .. self.num_links()`.
    ///
    /// Layout: for each router, four outgoing directions (E, W, S, N) in that
    /// order; links that would leave a mesh are still assigned indices but
    /// never produced by [`Self::xy_route`].
    pub fn link_index(&self, link: Link) -> usize {
        let from = self.node_at(link.from) as usize;
        from * 4 + self.link_dir(link)
    }

    /// Number of directed link slots ([`Self::link_index`] upper bound).
    pub fn num_links(&self) -> usize {
        self.num_nodes() as usize * 4
    }

    /// Map a bank-coordinate fault descriptor (always expressed on the tile
    /// grid, see [`LinkRef`]) onto a routable link. `None` when both
    /// endpoints share a router (concentration makes the wire internal).
    /// Torus wrap links cannot be named by a `LinkRef` — which requires
    /// coordinate adjacency — so on a torus they are always healthy; the
    /// documented trade keeps fault plans geometry-portable.
    pub fn fault_link(&self, l: &LinkRef) -> Option<Link> {
        let k = concentration(self.kind);
        let from = Coord {
            x: l.fx / k,
            y: l.fy / k,
        };
        let to = Coord {
            x: l.tx / k,
            y: l.ty / k,
        };
        if from == to {
            return None;
        }
        Some(Link { from, to })
    }

    /// Banks hosting memory controllers: the paper places 4 at the corners.
    /// (On a torus "corners" are still the numbering corners — placement is
    /// a floorplan property, not a routing one.)
    pub fn mem_ctrl_banks(&self, num_ctrls: u32) -> Vec<BankId> {
        let corners = [
            self.bank_of(Coord { x: 0, y: 0 }),
            self.bank_of(Coord {
                x: self.mesh_x - 1,
                y: 0,
            }),
            self.bank_of(Coord {
                x: 0,
                y: self.mesh_y - 1,
            }),
            self.bank_of(Coord {
                x: self.mesh_x - 1,
                y: self.mesh_y - 1,
            }),
        ];
        let mut out: Vec<BankId> = corners.into_iter().take(num_ctrls as usize).collect();
        out.dedup();
        out
    }

    /// The memory controller nearest to `bank` (ties break to the
    /// lowest-numbered controller). Distance is geometry-aware, so on a
    /// torus a center bank is equidistant from all four corners and takes
    /// controller 0.
    pub fn nearest_mem_ctrl(&self, bank: BankId, num_ctrls: u32) -> BankId {
        self.mem_ctrl_banks(num_ctrls)
            .into_iter()
            .min_by_key(|&m| (self.manhattan(bank, m), m))
            .expect("at least one memory controller")
    }
}

/// [`Topology::manhattan`] split by axis and built once: per-bank router
/// column and row, plus one distance row per router column and per router
/// row. The hop count is separable on every kind the grid supports (mesh,
/// torus wrap, concentrated routers, snake numbering), so
/// `hops(a, b) = x_row(col(a))[col(b)] + y_row(row(a))[row(b)]`, and a sum
/// of hops from many sources needs one short row add per source and axis —
/// not one coordinate decode per bank pair.
#[derive(Debug, Clone)]
pub struct AxisHops {
    grid_x: usize,
    grid_y: usize,
    banks: usize,
    /// One allocation, four tables: the router column of each bank, the
    /// router row of each bank, `dist_x[i * grid_x + j]` (hops between
    /// router columns `i` and `j`) and `dist_y[i * grid_y + j]`.
    table: Vec<u32>,
}

impl AxisHops {
    /// The axis tables of `topo`.
    pub fn new(topo: &Topology) -> Self {
        let (gx, gy) = (topo.grid_x() as usize, topo.grid_y() as usize);
        let n = topo.num_banks() as usize;
        let mut table = vec![0; 2 * n + gx * gx + gy * gy];
        let (col, rest) = table.split_at_mut(n);
        let (row, rest) = rest.split_at_mut(n);
        let (dist_x, dist_y) = rest.split_at_mut(gx * gx);
        // Walk the tile grid rather than decoding every bank id: a bank's
        // router sits at its tile coordinate divided by the concentration
        // (1 or 2 banks per router along an axis).
        let shift = concentration(topo.kind).trailing_zeros();
        for y in 0..topo.mesh_y {
            for x in 0..topo.mesh_x {
                let b = topo.bank_of(Coord { x, y }) as usize;
                (col[b], row[b]) = (x >> shift, y >> shift);
            }
        }
        for (dist, len) in [(dist_x, gx), (dist_y, gy)] {
            for (i, dists) in dist.chunks_exact_mut(len).enumerate() {
                for (j, d) in dists.iter_mut().enumerate() {
                    *d = topo.axis_distance(i as u32, j as u32, len as u32);
                }
            }
        }
        Self {
            grid_x: gx,
            grid_y: gy,
            banks: n,
            table,
        }
    }

    /// Router-grid width: the length of every [`x_row`](Self::x_row).
    pub fn grid_x(&self) -> usize {
        self.grid_x
    }

    /// Router-grid height: the length of every [`y_row`](Self::y_row).
    pub fn grid_y(&self) -> usize {
        self.grid_y
    }

    /// Router column of bank `b`.
    #[inline]
    pub fn col(&self, b: BankId) -> u32 {
        self.table[..self.banks][b as usize]
    }

    /// Router row of bank `b`.
    #[inline]
    pub fn row(&self, b: BankId) -> u32 {
        self.table[self.banks..2 * self.banks][b as usize]
    }

    /// Hops along X from router column `c` to every router column.
    #[inline]
    pub fn x_row(&self, c: u32) -> &[u32] {
        let gx = self.grid_x;
        &self.table[2 * self.banks + c as usize * gx..][..gx]
    }

    /// Hops along Y from router row `r` to every router row.
    #[inline]
    pub fn y_row(&self, r: u32) -> &[u32] {
        let (gx, gy) = (self.grid_x, self.grid_y);
        &self.table[2 * self.banks + gx * gx + r as usize * gy..][..gy]
    }

    /// Hop distance between banks `a` and `b`; equals
    /// [`Topology::manhattan`] without its divisions.
    #[inline]
    pub fn hops(&self, a: BankId, b: BankId) -> u32 {
        self.x_row(self.col(a))[self.col(b) as usize]
            + self.y_row(self.row(a))[self.row(b) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_numbering() {
        let t = Topology::new(8, 8);
        assert_eq!(t.coord_of(0), Coord { x: 0, y: 0 });
        assert_eq!(t.coord_of(7), Coord { x: 7, y: 0 });
        assert_eq!(t.coord_of(8), Coord { x: 0, y: 1 });
        assert_eq!(t.coord_of(63), Coord { x: 7, y: 7 });
        for b in 0..64 {
            assert_eq!(t.bank_of(t.coord_of(b)), b);
        }
    }

    #[test]
    fn manhattan_matches_hand_counts() {
        let t = Topology::new(8, 8);
        assert_eq!(t.manhattan(0, 0), 0);
        assert_eq!(t.manhattan(0, 7), 7);
        assert_eq!(t.manhattan(0, 63), 14);
        assert_eq!(t.manhattan(9, 18), 2);
    }

    #[test]
    fn xy_route_is_x_then_y() {
        let t = Topology::new(4, 4);
        let route = t.xy_route(0, 15); // (0,0) -> (3,3)
        assert_eq!(route.len(), 6);
        // First three links move in X.
        for l in &route[..3] {
            assert_eq!(l.from.y, l.to.y);
        }
        // Last three links move in Y.
        for l in &route[3..] {
            assert_eq!(l.from.x, l.to.x);
        }
        assert_eq!(route[0].from, Coord { x: 0, y: 0 });
        assert_eq!(route[5].to, Coord { x: 3, y: 3 });
    }

    #[test]
    fn route_length_equals_manhattan() {
        let t = Topology::new(8, 8);
        for a in (0..64).step_by(7) {
            for b in (0..64).step_by(5) {
                assert_eq!(t.xy_route(a, b).len() as u32, t.manhattan(a, b));
            }
        }
    }

    #[test]
    fn self_route_is_empty() {
        let t = Topology::new(8, 8);
        assert!(t.xy_route(12, 12).is_empty());
    }

    #[test]
    fn link_indices_unique() {
        let t = Topology::new(4, 4);
        let mut seen = std::collections::HashSet::new();
        for a in 0..16 {
            for b in 0..16 {
                for l in t.xy_route(a, b) {
                    let idx = t.link_index(l);
                    assert!(idx < t.num_links());
                    seen.insert((l, idx));
                }
            }
        }
        // Same link always maps to the same index; distinct links to distinct.
        let mut by_idx = std::collections::HashMap::new();
        for (l, idx) in seen {
            if let Some(prev) = by_idx.insert(idx, l) {
                assert_eq!(prev, l, "index collision at {idx}");
            }
        }
    }

    #[test]
    fn corner_mem_ctrls() {
        let t = Topology::new(8, 8);
        assert_eq!(t.mem_ctrl_banks(4), vec![0, 7, 56, 63]);
        assert_eq!(t.nearest_mem_ctrl(9, 4), 0);
        assert_eq!(t.nearest_mem_ctrl(62, 4), 63);
    }

    #[test]
    fn one_by_one_mesh_works() {
        let t = Topology::new(1, 1);
        assert_eq!(t.num_banks(), 1);
        assert_eq!(t.manhattan(0, 0), 0);
        assert_eq!(t.mem_ctrl_banks(4), vec![0]);
    }

    #[test]
    #[should_panic(expected = "degenerate mesh 0x3")]
    fn empty_mesh_panics() {
        let _ = Topology::new(0, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coord_of_out_of_range_panics() {
        Topology::new(2, 2).coord_of(4);
    }

    #[test]
    fn snake_numbering_round_trips() {
        let t = Topology::with_order(8, 8, BankOrder::Snake);
        for b in 0..64 {
            assert_eq!(t.bank_of(t.coord_of(b)), b);
        }
        // Row 1 runs right-to-left: bank 8 sits under bank 7.
        assert_eq!(t.coord_of(7), Coord { x: 7, y: 0 });
        assert_eq!(t.coord_of(8), Coord { x: 7, y: 1 });
    }

    #[test]
    fn snake_makes_all_consecutive_banks_adjacent() {
        let t = Topology::with_order(8, 8, BankOrder::Snake);
        for b in 0..63 {
            assert_eq!(t.manhattan(b, b + 1), 1, "banks {b},{} not adjacent", b + 1);
        }
        // Row-major pays the row wrap instead.
        let rm = Topology::new(8, 8);
        assert_eq!(rm.manhattan(7, 8), 8);
    }

    #[test]
    fn torus_distance_takes_the_wrap() {
        let t = Topology::torus(8, 8);
        // Opposite row ends: 1 wrap hop instead of 7.
        assert_eq!(t.manhattan(0, 7), 1);
        // Opposite corners: 1 + 1.
        assert_eq!(t.manhattan(0, 63), 2);
        // Half-way around an even ring: exactly W/2 either way.
        assert_eq!(t.manhattan(0, 4), 4);
        // Interior pairs match the mesh.
        assert_eq!(t.manhattan(9, 18), Topology::new(8, 8).manhattan(9, 18));
    }

    #[test]
    fn torus_routes_match_distance_and_wrap_east_on_ties() {
        let t = Topology::torus(8, 8);
        for a in (0..64).step_by(3) {
            for b in (0..64).step_by(5) {
                let r = t.xy_route(a, b);
                assert_eq!(r.len() as u32, t.manhattan(a, b), "{a}->{b}");
                for w in r.windows(2) {
                    assert_eq!(w[0].to, w[1].from, "route not contiguous");
                }
            }
        }
        // Tie at distance W/2 resolves east (forward): (0,0) -> (4,0) steps
        // through x = 1, 2, 3.
        let tie = t.xy_route(0, 4);
        assert_eq!(tie[0].to, Coord { x: 1, y: 0 });
        // The wrap route 0 -> 7 is the single east wrap link (7,0)<-(0,0)?
        // No: east from x=0 wraps only westward; 0 -> 7 goes WEST via wrap.
        let wrap = t.xy_route(0, 7);
        assert_eq!(wrap.len(), 1);
        assert_eq!(wrap[0].from, Coord { x: 0, y: 0 });
        assert_eq!(wrap[0].to, Coord { x: 7, y: 0 });
    }

    #[test]
    fn torus_link_indices_stay_in_range_and_consistent() {
        let t = Topology::torus(4, 4);
        let mut by_idx = std::collections::HashMap::new();
        for a in 0..16 {
            for b in 0..16 {
                for l in t.xy_route(a, b) {
                    let idx = t.link_index(l);
                    assert!(idx < t.num_links());
                    if let Some(prev) = by_idx.insert(idx, l) {
                        assert_eq!(prev, l, "index collision at {idx}");
                    }
                }
            }
        }
    }

    #[test]
    fn two_wide_torus_collapses_parallel_links() {
        // On a 2-wide ring east-wrap and west-direct are the same wire; the
        // dense index must agree however the link was produced.
        let t = Topology::torus(2, 2);
        for n in 0..4 {
            let nbrs = t.node_neighbors(n);
            assert_eq!(nbrs.len(), 2, "node {n} neighbors {nbrs:?}");
        }
        for a in 0..4 {
            for b in 0..4 {
                for l in t.xy_route(a, b) {
                    assert!(t.link_index(l) < t.num_links());
                }
            }
        }
    }

    #[test]
    fn one_wide_torus_has_no_x_moves() {
        let t = Topology::torus(1, 4);
        assert_eq!(t.node_neighbors(0), vec![1, 3]); // south, north-wrap
        assert_eq!(t.manhattan(0, 3), 1);
        assert_eq!(t.xy_route(0, 3).len(), 1);
    }

    #[test]
    fn cmesh_concentrates_two_by_two_blocks() {
        let t = Topology::cmesh(8, 8);
        assert_eq!(t.num_banks(), 64);
        assert_eq!(t.num_nodes(), 16);
        // Banks 0, 1, 8, 9 share router 0.
        for b in [0, 1, 8, 9] {
            assert_eq!(t.node_of_bank(b), 0);
        }
        assert_eq!(t.node_of_bank(63), 15);
        // Same-router pairs are distance 0 with empty routes.
        assert_eq!(t.manhattan(0, 9), 0);
        assert!(t.xy_route(0, 9).is_empty());
        // Cross-chip pairs route on the 4×4 router grid.
        assert_eq!(t.manhattan(0, 63), 6);
        assert_eq!(t.xy_route(0, 63).len(), 6);
        assert_eq!(t.num_links(), 16 * 4);
    }

    #[test]
    fn cmesh_fault_links_map_to_router_grid() {
        let t = Topology::cmesh(4, 4);
        // Banks (1,0) and (2,0) straddle two routers: maps to router link.
        let l = LinkRef {
            fx: 1,
            fy: 0,
            tx: 2,
            ty: 0,
        };
        let mapped = t.fault_link(&l).expect("crosses routers");
        assert_eq!(mapped.from, Coord { x: 0, y: 0 });
        assert_eq!(mapped.to, Coord { x: 1, y: 0 });
        // Banks (0,0) and (1,0) share a router: internal, no link.
        let internal = LinkRef {
            fx: 0,
            fy: 0,
            tx: 1,
            ty: 0,
        };
        assert!(t.fault_link(&internal).is_none());
    }

    #[test]
    fn axis_hops_equal_manhattan_on_every_kind() {
        for t in [
            Topology::new(5, 3),
            Topology::with_order(4, 6, BankOrder::Snake),
            Topology::torus(7, 4),
            Topology::torus(1, 4),
            Topology::cmesh(8, 4),
            Topology::with_kind(6, 6, BankOrder::Snake, TopologyKind::CMesh),
            Topology::with_kind(5, 5, BankOrder::Snake, TopologyKind::Torus),
        ] {
            let ax = AxisHops::new(&t);
            for a in 0..t.num_banks() {
                for b in 0..t.num_banks() {
                    let sep = ax.x_row(ax.col(a))[ax.col(b) as usize]
                        + ax.y_row(ax.row(a))[ax.row(b) as usize];
                    assert_eq!(ax.hops(a, b), t.manhattan(a, b), "{t:?} {a}->{b}");
                    assert_eq!(sep, t.manhattan(a, b), "{t:?} {a}->{b}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "even dimensions")]
    fn cmesh_rejects_odd_dims() {
        let _ = Topology::cmesh(5, 4);
    }

    #[test]
    fn mesh_fault_link_is_identity() {
        let t = Topology::new(4, 4);
        let l = LinkRef {
            fx: 1,
            fy: 2,
            tx: 2,
            ty: 2,
        };
        let mapped = t.fault_link(&l).unwrap();
        assert_eq!(mapped.from, Coord { x: 1, y: 2 });
        assert_eq!(mapped.to, Coord { x: 2, y: 2 });
    }

    #[test]
    fn route_dir_reconstructs_routes_on_every_kind() {
        for t in [
            Topology::new(5, 3),
            Topology::torus(5, 3),
            Topology::cmesh(6, 4),
            Topology::with_order(4, 4, BankOrder::Snake),
        ] {
            for a in 0..t.num_banks() {
                for b in 0..t.num_banks() {
                    let route = t.xy_route(a, b);
                    let mut cur = t.node_of_bank(a);
                    let dst = t.node_of_bank(b);
                    for link in &route {
                        let dir = t.route_dir(cur, dst).expect("route still in flight");
                        let next = t.node_in_dir(cur, dir).unwrap();
                        assert_eq!(t.node_coord(cur), link.from);
                        assert_eq!(t.node_coord(next), link.to);
                        cur = next;
                    }
                    assert_eq!(cur, dst);
                    assert!(t.route_dir(cur, dst).is_none());
                }
            }
        }
    }
}
