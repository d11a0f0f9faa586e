// Lint fixture: near misses of the packet-handle scope, none flagged. A
// comment may name an RwLock or a Mutex, or call `.read()`, and so may a
// string; a method named `read_only` is not `.read()`. Never compiled.
use std::sync::Arc;

pub struct Shared {
    packet: Vec<u8>,
    read_only: bool,
}

impl Shared {
    pub fn packet(&self) -> &[u8] {
        &self.packet
    }

    pub fn read_only(&self) -> bool {
        self.read_only
    }

    pub fn take(handle: &mut Arc<Self>) -> Option<Vec<u8>> {
        Arc::get_mut(handle).map(|unique| std::mem::take(&mut unique.packet))
    }

    pub fn describe(&self) -> &'static str {
        if self.read_only() {
            "no RwLock, no .read()"
        } else {
            "no Mutex"
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    #[test]
    fn tests_may_lock() {
        let seen = Mutex::new(1);
        assert_eq!(*seen.lock().unwrap(), 1);
    }
}
