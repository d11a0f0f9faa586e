//! Synchronization facade: the one import site for atomics in this crate.
//!
//! Every module in `sdnfv-ring` (and `sdnfv-telemetry`'s histogram) takes
//! its atomic types from here instead of `std::sync::atomic`, so one cargo
//! feature swaps the real atomics for the recording atomics of the
//! [`model`](crate::model) interleaving checker — the shipping code *is*
//! the checked code, there is no parallel "model copy" to drift:
//!
//! * default build: the types below are plain re-exports of
//!   `std::sync::atomic` and [`Slot`] is a thin `UnsafeCell<MaybeUninit<T>>`
//!   — zero cost, byte-identical to importing std directly;
//! * `--features model`: the atomic types are the instrumented ones from
//!   [`crate::model`], and [`Slot`] reports its reads/writes to the model's
//!   data-race detector. Outside an active model execution the instrumented
//!   types delegate straight to the real atomic they wrap (same orderings),
//!   so enabling the feature workspace-wide (as building `sdnfv-check`
//!   does, via cargo feature unification) does not change the behavior of
//!   ordinary threaded tests or binaries.

pub use std::sync::atomic::Ordering;

#[cfg(not(feature = "model"))]
pub use std::sync::atomic::{AtomicIsize, AtomicU32, AtomicU64, AtomicUsize};

#[cfg(feature = "model")]
pub use crate::model::{AtomicIsize, AtomicU32, AtomicU64, AtomicUsize};

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

/// A possibly-uninitialized shared memory slot (one ring-buffer cell).
///
/// The SPSC ring's correctness argument is that the cursor protocol hands
/// each slot to exactly one side at a time; `Slot` is where that argument
/// is *checked*: under the model cfg every access is reported to the
/// interleaving checker, which flags any pair of accesses not ordered by
/// the happens-before graph (and any read of a never-written slot).
///
/// Transparent over its `T`, so a run of slots is laid out as a `[T]`: the
/// ring's consumer serves a burst in place through [`Slot::run_ptr`].
#[derive(Debug)]
#[repr(transparent)]
pub struct Slot<T> {
    cell: UnsafeCell<MaybeUninit<T>>,
}

impl<T> Slot<T> {
    /// A new, uninitialized slot.
    pub fn new() -> Self {
        Slot {
            cell: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    /// Writes `value` into the slot, without dropping a previous occupant.
    ///
    /// # Safety
    ///
    /// The caller must guarantee exclusive access to the slot for the
    /// duration of the call (in the ring: the producer owns slots in
    /// `[tail, head + capacity)`), and that any previously written value
    /// has already been moved out or dropped.
    pub unsafe fn write(&self, value: T) {
        #[cfg(feature = "model")]
        crate::model::trace_nonatomic_write(self as *const _ as usize);
        // SAFETY: exclusive access is the caller's contract (checked under
        // the model cfg by the race detector).
        unsafe { (*self.cell.get()).write(value) };
    }

    /// Moves the value out of the slot, leaving it logically uninitialized.
    /// (Not `read`: the hot-path lint reserves `.read()` for lock guards.)
    ///
    /// # Safety
    ///
    /// The caller must guarantee the slot holds an initialized value it has
    /// exclusive access to (in the ring: the consumer owns slots in
    /// `[head, tail)`), and must not read the slot again before the next
    /// `write`.
    pub unsafe fn move_out(&self) -> T {
        #[cfg(feature = "model")]
        crate::model::trace_nonatomic_read(self as *const _ as usize);
        // SAFETY: initialization and exclusivity are the caller's contract
        // (checked under the model cfg by the race detector).
        unsafe { (*self.cell.get()).assume_init_read() }
    }

    /// A pointer to the value of the first of `slots`, through which the
    /// whole run reads and writes as one `[T]`. Under the model cfg every
    /// slot of the run is reported as written: whoever holds the view may
    /// write any of them in place.
    ///
    /// Dereferencing the pointer carries [`Slot::move_out`]'s and
    /// [`Slot::write`]'s contracts at once: exclusive access to every slot
    /// of the run, each holding an initialized value (in the ring: the
    /// consumer's unread slots).
    pub fn run_ptr(slots: &[Slot<T>]) -> *mut T {
        #[cfg(feature = "model")]
        for slot in slots {
            crate::model::trace_nonatomic_write(slot as *const _ as usize);
        }
        // `Slot` is transparent over `UnsafeCell<MaybeUninit<T>>`, which is
        // laid out as `T`; the pointer derives from the whole run, so it
        // may address every slot of it.
        UnsafeCell::raw_get(slots.as_ptr().cast::<UnsafeCell<MaybeUninit<T>>>()).cast::<T>()
    }

    /// Drops the value in place.
    ///
    /// # Safety
    ///
    /// The caller must hold `&mut`-grade exclusive access (only called from
    /// the ring's `Drop`, where `&mut self` proves no other handle exists)
    /// and the slot must hold an initialized value. Not reported to the
    /// model: `&mut` exclusivity is already guaranteed by the borrow
    /// checker, so no interleaving can race it.
    pub unsafe fn drop_in_place(&self) {
        // SAFETY: initialization and `&mut`-grade exclusivity are the
        // caller's contract.
        unsafe { std::ptr::drop_in_place((*self.cell.get()).as_mut_ptr()) };
    }
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Self::new()
    }
}
