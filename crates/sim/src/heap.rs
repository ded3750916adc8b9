//! The simulated heap.
//!
//! Cells carry their allocated (dynamic) type — the interpreter's
//! `ISTYPE`/`NARROW` and method dispatch read it — and a synthetic byte
//! address so the cache model sees realistic locality: allocations are
//! laid out sequentially, eight bytes per slot, sixteen-byte aligned,
//! starting at [`HEAP_BASE`].

use crate::value::{HeapId, Value};
use mini_m3::types::TypeId;

/// Base byte address of the simulated heap region.
pub const HEAP_BASE: u64 = 0x0001_0000_0000;

/// One allocated cell.
#[derive(Debug, Clone)]
pub struct HeapCell {
    /// The allocated (dynamic) type.
    pub ty: TypeId,
    /// Slot storage (slot 0 of an open array is the dope/length).
    pub slots: Vec<Value>,
    /// Synthetic byte address of slot 0.
    pub addr: u64,
}

/// The heap: an arena of cells.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    cells: Vec<HeapCell>,
    next_offset: u64,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// Allocates a cell holding `slots` (an empty cell still gets one
    /// `NIL` slot of storage).
    pub fn alloc(&mut self, ty: TypeId, mut slots: Vec<Value>) -> HeapId {
        let id = HeapId(self.cells.len() as u32);
        let addr = HEAP_BASE + self.next_offset;
        // 8 bytes per slot plus an 8-byte header, 16-byte aligned.
        let bytes = (slots.len() as u64 + 1) * 8;
        self.next_offset += bytes.div_ceil(16) * 16;
        if slots.is_empty() {
            slots.push(Value::Nil);
        }
        self.cells.push(HeapCell { ty, slots, addr });
        id
    }

    /// Cell accessor.
    pub fn cell(&self, id: HeapId) -> &HeapCell {
        &self.cells[id.0 as usize]
    }

    /// Mutable cell accessor.
    pub fn cell_mut(&mut self, id: HeapId) -> &mut HeapCell {
        &mut self.cells[id.0 as usize]
    }

    /// Number of allocated cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total slots allocated.
    pub fn total_slots(&self) -> usize {
        self.cells.iter().map(|c| c.slots.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_assigns_distinct_addresses() {
        let mut h = Heap::new();
        let a = h.alloc(TypeId(0), vec![Value::Nil; 2]);
        let b = h.alloc(TypeId(0), vec![Value::Nil; 2]);
        assert_ne!(a, b);
        assert!(h.cell(b).addr > h.cell(a).addr);
        assert_eq!(h.cell(a).addr % 16, 0);
        assert_eq!(h.cell(b).addr % 16, 0);
    }

    #[test]
    fn cells_hold_values() {
        let mut h = Heap::new();
        let a = h.alloc(TypeId(7), vec![Value::Int(0); 3]);
        h.cell_mut(a).slots[1] = Value::Int(42);
        assert_eq!(h.cell(a).slots[1], Value::Int(42));
        assert_eq!(h.cell(a).ty, TypeId(7));
        assert_eq!(h.total_slots(), 3);
    }

    #[test]
    fn zero_slot_alloc_still_has_storage() {
        let mut h = Heap::new();
        let a = h.alloc(TypeId(0), Vec::new());
        assert_eq!(h.cell(a).slots.len(), 1);
    }
}
