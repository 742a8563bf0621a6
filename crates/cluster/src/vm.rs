//! Virtual machines: shapes, kinds and lifetimes.

/// The two application classes of §2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmKind {
    /// Requires cloud-level availability; a power shortfall forces a
    /// *migration* (WAN traffic equal to the VM's memory).
    Stable,
    /// Harvest/Spot-like: can be degraded or hibernated in place when
    /// power dips, at no WAN cost.
    Degradable,
}

impl VmKind {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            VmKind::Stable => "stable",
            VmKind::Degradable => "degradable",
        }
    }
}

/// A request to run one VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmRequest {
    /// vCPU cores.
    pub cores: u32,
    /// Allocated memory in GB — also the migration cost in GB (§3: "We
    /// use the memory allocated to a VM for estimating migration
    /// traffic").
    pub mem_gb: f64,
    /// Stable or degradable.
    pub kind: VmKind,
    /// Total lifetime in simulation steps (15-minute intervals). The VM
    /// departs this many steps after its *arrival*, whether or not it
    /// spent time queued or hibernated in between.
    pub lifetime_steps: u32,
}

impl VmRequest {
    /// A stable VM with the given shape.
    pub fn stable(cores: u32, mem_gb: f64, lifetime_steps: u32) -> VmRequest {
        VmRequest {
            cores,
            mem_gb,
            kind: VmKind::Stable,
            lifetime_steps,
        }
    }

    /// A degradable VM with the given shape.
    pub fn degradable(cores: u32, mem_gb: f64, lifetime_steps: u32) -> VmRequest {
        VmRequest {
            cores,
            mem_gb,
            kind: VmKind::Degradable,
            lifetime_steps,
        }
    }
}

/// Internal identifier of a VM living in a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub(crate) usize);

/// Where a VM currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Running on a server (index).
    Running(usize),
    /// Degradable VM paused in place on a server (index) during a power
    /// shortfall; holds no powered cores.
    Hibernated(usize),
}

/// A VM resident in a cluster.
#[derive(Debug, Clone)]
pub struct Vm {
    /// The request this VM was created from.
    pub request: VmRequest,
    /// Current lifecycle state.
    pub state: VmState,
    /// Step at which the VM arrived.
    pub arrived_at: u64,
    /// Step at which the VM departs (arrival + lifetime).
    pub departs_at: u64,
}

impl Vm {
    /// True when the VM's lifetime is over at `now`.
    pub fn expired(&self, now: u64) -> bool {
        now >= self.departs_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let s = VmRequest::stable(4, 16.0, 10);
        let d = VmRequest::degradable(2, 8.0, 5);
        assert_eq!(s.kind, VmKind::Stable);
        assert_eq!(d.kind, VmKind::Degradable);
        assert_eq!(s.cores, 4);
        assert_eq!(d.mem_gb, 8.0);
    }

    #[test]
    fn expiry_is_at_departure_step() {
        let vm = Vm {
            request: VmRequest::stable(1, 4.0, 10),
            state: VmState::Running(0),
            arrived_at: 5,
            departs_at: 15,
        };
        assert!(!vm.expired(14));
        assert!(vm.expired(15));
    }

    #[test]
    fn labels() {
        assert_eq!(VmKind::Stable.label(), "stable");
        assert_eq!(VmKind::Degradable.label(), "degradable");
    }
}
