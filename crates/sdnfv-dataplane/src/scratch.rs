//! Reusable scratch allocations for borrow-scoped buffers.
//!
//! An NF burst loop needs a temporary vector of packet references whose
//! element type borrows from the burst's work items. That borrow ends with
//! the burst, so the vector cannot simply live across iterations: the
//! borrow checker (correctly) ties its element lifetime to the burst.
//! Allocating a fresh `Vec` per burst was the cost; [`recycle`] removes it
//! by passing the *allocation* (not any element) across the borrow scope,
//! re-typing the empty vector at the new, shorter lifetime.
//!
//! This is the `recycle_vec` idiom: converting an **empty** `Vec<A>` into an
//! empty `Vec<B>` is sound when `A` and `B` have identical size and
//! alignment, because no value of either type exists in the buffer and the
//! heap allocation's layout (`capacity × size`, `align`) is the same under
//! both types. The intended use is `A` and `B` being the same generic type
//! at two different lifetimes (e.g. `&'static Packet` as the parked type
//! and `&'burst Packet` in use), which trivially satisfies both checks.

/// Re-types an empty `Vec<A>` as an empty `Vec<B>`, keeping its allocation.
///
/// # Panics
///
/// Panics if the vector is not empty, or if `A` and `B` differ in size or
/// alignment (both are compile-time constants; for the intended
/// same-type-different-lifetime use they are always equal).
pub fn recycle<A, B>(mut vec: Vec<A>) -> Vec<B> {
    assert!(vec.is_empty(), "only empty vectors can be recycled");
    assert_eq!(
        std::mem::size_of::<A>(),
        std::mem::size_of::<B>(),
        "recycle requires identical element sizes"
    );
    assert_eq!(
        std::mem::align_of::<A>(),
        std::mem::align_of::<B>(),
        "recycle requires identical element alignment"
    );
    let capacity = vec.capacity();
    let ptr = vec.as_mut_ptr();
    std::mem::forget(vec);
    // SAFETY: the buffer came from a Vec<A> with this capacity; it holds no
    // initialized elements (len 0 asserted above); A and B have identical
    // size and alignment, so `Layout::array::<B>(capacity)` equals the
    // layout the allocation was made with and the returned Vec<B> will
    // deallocate it correctly. No value is ever transmuted.
    unsafe { Vec::from_raw_parts(ptr.cast::<B>(), 0, capacity) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_capacity_across_lifetimes() {
        let storage: Vec<&'static u64> = Vec::with_capacity(32);
        let ptr = storage.as_ptr() as usize;
        let value = 7u64;
        let mut scoped: Vec<&u64> = recycle(storage);
        assert_eq!(scoped.capacity(), 32);
        assert_eq!(scoped.as_ptr() as usize, ptr, "allocation reused");
        scoped.push(&value);
        assert_eq!(*scoped[0], 7);
        scoped.clear();
        let back: Vec<&'static u64> = recycle(scoped);
        assert_eq!(back.capacity(), 32);
        assert_eq!(back.as_ptr() as usize, ptr);
    }

    #[test]
    fn zero_capacity_round_trips() {
        let empty: Vec<&'static str> = Vec::new();
        let recycled: Vec<&str> = recycle(empty);
        assert_eq!(recycled.capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "only empty vectors")]
    fn non_empty_vectors_are_rejected() {
        let _ = recycle::<u32, u32>(vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "identical element sizes")]
    fn size_mismatch_is_rejected() {
        let _ = recycle::<u64, u8>(Vec::new());
    }
}
