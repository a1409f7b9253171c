//! Enqueue-time op journal — the redo log behind device-loss recovery.
//!
//! The host cannot snapshot a virtual GPU (a real one even less), but it
//! does not need to: every byte of device state a target region produces
//! is the result of a *deterministic* sequence of host-visible effects —
//! allocations, zero-fills, host→device copies, kernel launches. The
//! journal records exactly that sequence per device slot, in
//! device-mutation order, and [`crate::Host`] replays it verbatim on a
//! replacement device after a `DeviceLost` fault.
//!
//! Two properties make replay sound (see `docs/robustness.md`):
//!
//! * `Device::alloc` is a pure bump allocator, so replaying the recorded
//!   [`JEffect::Grow`]s on a fresh device of the same image reproduces
//!   the *identical* device pointers — the present table, pool, and every
//!   already-translated kernel argument stay valid without rewriting.
//!   Replay asserts this ([`crate::HostError::Replay`] on divergence).
//! * Device execution is deterministic on either tier, so replaying the
//!   recorded launches reproduces bit-identical memory, metrics, and
//!   sanitizer verdicts — the chaos suite's recovered-equals-clean claim.
//!
//! Pool frees are deliberately *not* journaled: freeing only moves a
//! block to the host-side free list and touches no device memory, and the
//! pool object itself survives the failover.

use nzomp_vgpu::device::Launch;
use nzomp_vgpu::memory::DevPtr;
use nzomp_vgpu::RtVal;

use crate::map::BufId;
use crate::stream::Ticket;

/// One recorded device-state effect.
#[derive(Clone, Debug)]
pub enum JEffect {
    /// `Device::alloc(size)` returned `at` (via a fresh pool allocation).
    /// Replay re-allocates and verifies the pointer matches.
    Grow { size: u64, at: DevPtr },
    /// A reused pool block was zero-filled before being handed out.
    Zero { ptr: DevPtr, len: u64 },
    /// A host→device copy landed these bytes at `ptr`. The journal owns a
    /// shadow of the bytes — the host buffer may be overwritten by later
    /// readbacks.
    Write { ptr: DevPtr, bytes: Vec<u8> },
    /// A kernel launch that completed (trapped launches abort the drain
    /// and are never journaled). Replay refreshes the ticket's metrics.
    Launch {
        kernel: String,
        launch: Launch,
        args: Vec<RtVal>,
        ticket: Ticket,
    },
    /// A device→host copy into host buffer `buf`. Replayed so the host
    /// shadow reflects the replacement device's (bit-identical) memory.
    ReadBack {
        src: DevPtr,
        buf: BufId,
        off: u64,
        len: u64,
    },
}

/// The per-device-slot redo log. Cleared when the slot is rebound to a
/// (different) image — a rebind resets device memory, so the history no
/// longer describes reachable state.
#[derive(Default)]
pub struct OpJournal {
    pub effects: Vec<JEffect>,
}

impl OpJournal {
    pub fn new() -> OpJournal {
        OpJournal::default()
    }

    pub fn push(&mut self, e: JEffect) {
        self.effects.push(e);
    }

    pub fn clear(&mut self) {
        self.effects.clear();
    }

    pub fn len(&self) -> usize {
        self.effects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }
}
