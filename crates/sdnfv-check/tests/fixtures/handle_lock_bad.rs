// Lint fixture for the hot-path-block rule's packet-handle scope. Scanned
// with the packet-handle module's synthetic path, where every line outside
// the tests counts. Never compiled.
use parking_lot::RwLock;
use std::sync::Arc;
use std::sync::Mutex;

pub struct Shared {
    packet: RwLock<Vec<u8>>,
    waiters: Arc<Mutex<u32>>,
}

impl Shared {
    pub fn len(&self) -> usize {
        self.packet.read().len()
    }

    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.packet.write())
    }
}
