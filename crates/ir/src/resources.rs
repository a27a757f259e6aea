//! Renaming resources (paper §2.1).
//!
//! A *resource* is either a physical register or a virtual register; a
//! *pinning* pre-colors an operand (or a variable's unique definition) to
//! a resource. The coalescing algorithm merges resources; each resource is
//! interned in a per-function [`ResourceTable`].

use crate::ids::Resource;
use crate::machine::PhysReg;
use std::sync::Arc;

/// The kind of a renaming resource.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResourceKind {
    /// A physical (dedicated or ABI) register.
    Phys(PhysReg),
    /// A virtual resource: a coalescing target with no register identity.
    Virt,
}

/// Intern table for the resources of one function.
///
/// Physical resources are interned (one [`Resource`] per [`PhysReg`]);
/// virtual resources are freely created by coalescing and constraint
/// collection. Names are shared: a virtual resource named after a
/// variable holds that variable's name allocation.
#[derive(Clone, Debug, Default)]
pub struct ResourceTable {
    kinds: Vec<ResourceKind>,
    names: Vec<Arc<str>>,
    /// The interned resource of each register, indexed by register id.
    phys: Vec<Option<Resource>>,
}

impl ResourceTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the interned resource for a physical register, creating it
    /// on first use.
    pub fn phys(&mut self, reg: PhysReg, name: &str) -> Resource {
        if let Some(&Some(r)) = self.phys.get(reg.index()) {
            return r;
        }
        let r = Resource::new(self.kinds.len());
        self.kinds.push(ResourceKind::Phys(reg));
        self.names.push(Arc::from(name));
        if self.phys.len() <= reg.index() {
            self.phys.resize(reg.index() + 1, None);
        }
        self.phys[reg.index()] = Some(r);
        r
    }

    /// Creates a fresh virtual resource with a display name.
    pub fn new_virt(&mut self, name: impl Into<Arc<str>>) -> Resource {
        let r = Resource::new(self.kinds.len());
        self.kinds.push(ResourceKind::Virt);
        self.names.push(name.into());
        r
    }

    /// The kind of a resource.
    ///
    /// # Panics
    /// Panics if `r` does not belong to this table.
    pub fn kind(&self, r: Resource) -> ResourceKind {
        self.kinds[r.index()]
    }

    /// Whether `r` is a physical resource; returns the register.
    pub fn as_phys(&self, r: Resource) -> Option<PhysReg> {
        match self.kind(r) {
            ResourceKind::Phys(reg) => Some(reg),
            ResourceKind::Virt => None,
        }
    }

    /// Display name of a resource.
    ///
    /// # Panics
    /// Panics if `r` does not belong to this table.
    pub fn name(&self, r: Resource) -> &Arc<str> {
        &self.names[r.index()]
    }

    /// Looks a resource up by display name.
    pub fn by_name(&self, name: &str) -> Option<Resource> {
        self.names
            .iter()
            .position(|n| &**n == name)
            .map(Resource::new)
    }

    /// Number of interned resources.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Iterates over all resources.
    pub fn iter(&self) -> impl Iterator<Item = Resource> + use<> {
        (0..self.kinds.len()).map(Resource::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_resources_are_interned() {
        let mut t = ResourceTable::new();
        let a = t.phys(PhysReg(0), "R0");
        let b = t.phys(PhysReg(0), "R0");
        let c = t.phys(PhysReg(1), "R1");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.as_phys(a), Some(PhysReg(0)));
        assert_eq!(&**t.name(c), "R1");
        assert_eq!(t.phys[1], Some(c));
        assert_eq!(t.phys.get(9).copied().flatten(), None);
    }

    #[test]
    fn virt_resources_are_fresh() {
        let mut t = ResourceTable::new();
        let a = t.new_virt("x");
        let b = t.new_virt("x");
        assert_ne!(a, b);
        assert_eq!(t.kind(a), ResourceKind::Virt);
        assert_eq!(t.as_phys(a), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lookup_by_name() {
        let mut t = ResourceTable::new();
        let a = t.new_virt("alpha");
        t.new_virt("beta");
        assert_eq!(t.by_name("alpha"), Some(a));
        assert_eq!(t.by_name("gamma"), None);
    }
}
