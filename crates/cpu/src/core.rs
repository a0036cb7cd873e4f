//! Per-core execution state.

use crate::context::CpuContext;

/// One simulated core: the context it is running (if any) plus local
/// accounting.
#[derive(Debug, Clone, Default)]
pub struct Core {
    context: Option<CpuContext>,
    /// Local cycle counter; the orchestrator steps the least-advanced
    /// core to approximate concurrent execution.
    cycles: u64,
    /// Instructions retired on this core (all contexts).
    retired: u64,
}

impl Core {
    /// Creates an idle core.
    pub fn new() -> Core {
        Core::default()
    }

    /// The running context, if any.
    pub fn context(&self) -> Option<&CpuContext> {
        self.context.as_ref()
    }

    /// Mutable access to the running context.
    pub fn context_mut(&mut self) -> Option<&mut CpuContext> {
        self.context.as_mut()
    }

    /// Installs a context, returning the previous one (context switch).
    pub fn swap_context(&mut self, new: Option<CpuContext>) -> Option<CpuContext> {
        std::mem::replace(&mut self.context, new)
    }

    /// Whether the core has nothing to run.
    pub fn is_idle(&self) -> bool {
        self.context.is_none()
    }

    /// Local cycle count.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Advances the local cycle count (stepping, stalls, idle waiting).
    pub fn add_cycles(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Instructions retired on this core.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Counts one retired instruction.
    pub fn count_retired(&mut self) {
        self.retired += 1;
    }

    /// Serializes the core (running context, cycle and retired counters)
    /// for checkpoint snapshots.
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        match &self.context {
            Some(ctx) => {
                out.push(1);
                ctx.save_state(out);
            }
            None => out.push(0),
        }
        qr_common::varint::write_u64(out, self.cycles);
        qr_common::varint::write_u64(out, self.retired);
    }

    /// Inverse of [`Core::save_state`].
    pub(crate) fn load_state(
        r: &mut qr_common::cursor::ByteReader<'_>,
    ) -> qr_common::Result<Core> {
        let context = match r.u8()? {
            0 => None,
            _ => Some(CpuContext::load_state(r)?),
        };
        let cycles = r.varint()?;
        let retired = r.varint()?;
        Ok(Core { context, cycles, retired })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_common::VirtAddr;

    #[test]
    fn swap_context_returns_previous() {
        let mut core = Core::new();
        assert!(core.is_idle());
        let old = core.swap_context(Some(CpuContext::new(VirtAddr(0x1000))));
        assert!(old.is_none());
        assert!(!core.is_idle());
        let prev = core.swap_context(None).unwrap();
        assert_eq!(prev.pc(), VirtAddr(0x1000));
        assert!(core.is_idle());
    }

    #[test]
    fn accounting_accumulates() {
        let mut core = Core::new();
        core.add_cycles(5);
        core.add_cycles(3);
        core.count_retired();
        assert_eq!(core.cycles(), 8);
        assert_eq!(core.retired(), 1);
    }
}
