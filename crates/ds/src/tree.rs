//! Unbalanced binary search tree for the `bin_tree` workload (Table 3:
//! 128k nodes, 8 B keys, 512k uniform lookups, random insertion order, no
//! rebalancing).
//!
//! Under affinity alloc each node is allocated with its parent as the
//! affinity address — the exact tree example of Fig 7. This is also the
//! workload where pure Min-Hop placement collapses (Fig 13): the whole tree
//! piles onto the root's bank, killing bank-level parallelism and blowing
//! the bank's capacity.

use crate::layout::AllocMode;
use aff_mem::addr::VAddr;
use aff_sim_core::config::CACHE_LINE;
use affinity_alloc::{AffinityAllocator, AllocError};

/// One placed tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeNode {
    /// Search key.
    pub key: u64,
    /// Left child index.
    pub left: Option<u32>,
    /// Right child index.
    pub right: Option<u32>,
    /// Parent index; `None` for the root. Nodes are stored in insertion
    /// order, so a parent's index is always lower than its children's.
    pub parent: Option<u32>,
    /// Where a lookup of this node's key ends: this node, or the
    /// earliest-inserted node with an equal key (an ancestor, since
    /// duplicates go right).
    pub lookup_end: u32,
    /// Node address.
    pub va: VAddr,
    /// Owning bank.
    pub bank: u32,
}

/// An unbalanced BST with placement resolved at build time.
#[derive(Debug, Clone, Default)]
pub struct AffBinaryTree {
    nodes: Vec<TreeNode>,
}

impl AffBinaryTree {
    /// Insert `keys` in order (duplicates go right), allocating each node
    /// per `mode`.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn build(
        alloc: &mut AffinityAllocator,
        keys: &[u64],
        mode: AllocMode,
    ) -> Result<Self, AllocError> {
        let mut tree = Self {
            nodes: Vec::with_capacity(keys.len()),
        };
        for &k in keys {
            tree.insert(alloc, k, mode)?;
        }
        Ok(tree)
    }

    /// Insert one key.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn insert(
        &mut self,
        alloc: &mut AffinityAllocator,
        key: u64,
        mode: AllocMode,
    ) -> Result<(), AllocError> {
        let (parent, equal) = self.locate_parent(key);
        let va = match (mode, parent) {
            (AllocMode::Baseline, _) => alloc.heap_alloc_scattered(CACHE_LINE),
            // Unhinted: through the runtime, but with the parent affinity
            // withheld — the annotation-free configuration.
            (AllocMode::Affinity, None) | (AllocMode::Unhinted, _) => {
                alloc.malloc_aff(CACHE_LINE, &[])?
            }
            (AllocMode::Affinity, Some(p)) => {
                let pv = self.nodes[p as usize].va;
                alloc.malloc_aff(CACHE_LINE, &[pv])?
            }
        };
        let bank = alloc.bank_of(va);
        let idx = self.nodes.len() as u32;
        self.nodes.push(TreeNode {
            key,
            left: None,
            right: None,
            parent,
            lookup_end: equal.unwrap_or(idx),
            va,
            bank,
        });
        if let Some(p) = parent {
            let pn = &mut self.nodes[p as usize];
            if key < pn.key {
                pn.left = Some(idx);
            } else {
                pn.right = Some(idx);
            }
        }
        Ok(())
    }

    /// The insert walk for `key`: the node its new node hangs under, and
    /// the first node passed with an equal key, where a lookup of `key`
    /// stops.
    fn locate_parent(&self, key: u64) -> (Option<u32>, Option<u32>) {
        if self.nodes.is_empty() {
            return (None, None);
        }
        let mut cur = 0u32;
        let mut equal = None;
        loop {
            let n = &self.nodes[cur as usize];
            if n.key == key {
                equal.get_or_insert(cur);
            }
            let next = if key < n.key { n.left } else { n.right };
            match next {
                Some(c) => cur = c,
                None => return (Some(cur), equal),
            }
        }
    }

    /// Clears `path` and fills it with the banks a lookup of `key` visits,
    /// root to the node where the search ends (found or leaf). One buffer
    /// serves every lookup.
    pub fn lookup_path_banks_into(&self, key: u64, path: &mut Vec<u32>) {
        path.clear();
        if self.nodes.is_empty() {
            return;
        }
        let mut cur = 0u32;
        loop {
            let n = &self.nodes[cur as usize];
            path.push(n.bank);
            if n.key == key {
                return;
            }
            let next = if key < n.key { n.left } else { n.right };
            match next {
                Some(c) => cur = c,
                None => return,
            }
        }
    }

    /// All nodes (insertion order).
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aff_sim_core::config::MachineConfig;
    use aff_sim_core::rng::SimRng;
    use affinity_alloc::BankSelectPolicy;

    fn path(t: &AffBinaryTree, key: u64) -> Vec<u32> {
        let mut path = Vec::new();
        t.lookup_path_banks_into(key, &mut path);
        path
    }

    fn random_keys(n: usize) -> Vec<u64> {
        let mut rng = SimRng::new(2023);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    /// Nodes per bank — the Fig 13 bin_tree pathology detector.
    fn nodes_per_bank(t: &AffBinaryTree) -> [u64; 64] {
        let mut v = [0u64; 64];
        for n in t.nodes() {
            v[n.bank as usize] += 1;
        }
        v
    }

    #[test]
    fn bst_invariant_holds() {
        let mut a =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        let t = AffBinaryTree::build(&mut a, &random_keys(500), AllocMode::Affinity).unwrap();
        fn check(t: &AffBinaryTree, idx: u32, lo: Option<u64>, hi: Option<u64>) {
            let n = &t.nodes()[idx as usize];
            if let Some(lo) = lo {
                assert!(n.key >= lo);
            }
            if let Some(hi) = hi {
                assert!(n.key < hi);
            }
            if let Some(l) = n.left {
                check(t, l, lo, Some(n.key));
            }
            if let Some(r) = n.right {
                check(t, r, Some(n.key), hi);
            }
        }
        check(&t, 0, None, None);
    }

    #[test]
    fn min_hop_piles_everything_on_one_bank() {
        let mut a =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        let t = AffBinaryTree::build(&mut a, &random_keys(1000), AllocMode::Affinity).unwrap();
        let per_bank = nodes_per_bank(&t);
        let max = *per_bank.iter().max().unwrap();
        assert_eq!(
            max, 1000,
            "min-hop must hoard the tree (the Fig 13 pathology)"
        );
    }

    #[test]
    fn hybrid_spreads_the_tree() {
        let mut a = AffinityAllocator::new(
            MachineConfig::paper_default(),
            BankSelectPolicy::paper_default(),
        );
        let t = AffBinaryTree::build(&mut a, &random_keys(1000), AllocMode::Affinity).unwrap();
        let used = nodes_per_bank(&t).iter().filter(|&&c| c > 0).count();
        assert!(used > 8, "hybrid must use many banks, used {used}");
    }

    #[test]
    fn lookup_path_finds_key() {
        let mut a =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        let keys = [50u64, 25, 75, 10, 60];
        let t = AffBinaryTree::build(&mut a, &keys, AllocMode::Baseline).unwrap();
        // 60: 50 -> 75 -> 60, three banks on the path.
        assert_eq!(path(&t, 60).len(), 3);
        // Missing key walks to a leaf.
        assert_eq!(path(&t, 11).len(), 3); // 50 -> 25 -> 10
        assert!(path(&t, 50).len() == 1);
    }

    #[test]
    fn empty_tree_lookup() {
        let t = AffBinaryTree::default();
        assert!(t.is_empty());
        assert!(path(&t, 7).is_empty());
    }

    #[test]
    fn duplicate_key_lookup_ends_at_the_earliest_equal_node() {
        let mut a =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        let keys = [50u64, 25, 50, 75, 50, 25];
        let t = AffBinaryTree::build(&mut a, &keys, AllocMode::Baseline).unwrap();
        let ends: Vec<u32> = t.nodes().iter().map(|n| n.lookup_end).collect();
        assert_eq!(ends, [0, 1, 0, 3, 0, 1]);
        let parents: Vec<Option<u32>> = t.nodes().iter().map(|n| n.parent).collect();
        // The second 50 goes right of the root, 75 right of it, the third
        // 50 left of 75; the second 25 right of the first.
        assert_eq!(parents, [None, Some(0), Some(0), Some(2), Some(3), Some(1)]);
    }

    #[test]
    fn lookup_path_is_the_lookup_ends_root_path() {
        // Keys from 64 values: most keys are duplicates.
        let mut rng = SimRng::new(8191);
        let keys: Vec<u64> = (0..2000).map(|_| rng.next_u64() % 64).collect();
        let mut a = AffinityAllocator::new(
            MachineConfig::paper_default(),
            BankSelectPolicy::paper_default(),
        );
        let t = AffBinaryTree::build(&mut a, &keys, AllocMode::Affinity).unwrap();
        let nodes = t.nodes();
        for (i, (n, &k)) in nodes.iter().zip(&keys).enumerate() {
            assert_eq!(n.key, k);
            assert!(n.parent.is_none_or(|p| (p as usize) < i));
            let end = n.lookup_end;
            assert!(end as usize <= i && nodes[end as usize].key == k);
            let mut up: Vec<u32> = std::iter::successors(Some(end), |&j| nodes[j as usize].parent)
                .map(|j| nodes[j as usize].bank)
                .collect();
            up.reverse();
            assert_eq!(path(&t, k), up, "key {k} (node {i})");
        }
    }
}
