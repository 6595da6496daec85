//! A minimal slab arena: stable `u32` keys, O(1) insert/remove, reuse of
//! vacated slots. Used for block and segment storage inside the caching
//! allocator so that intrusive prev/next links stay cheap `Copy` keys.

#[derive(Debug, Clone)]
pub(crate) struct Slab<T> {
    items: Vec<Option<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if let Some(key) = self.free.pop() {
            self.items[key as usize] = Some(value);
            key
        } else {
            self.items.push(Some(value));
            (self.items.len() - 1) as u32
        }
    }

    pub(crate) fn remove(&mut self, key: u32) -> T {
        let v = self.items[key as usize]
            .take()
            .expect("slab remove of vacant slot");
        self.free.push(key);
        self.len -= 1;
        v
    }

    pub(crate) fn get(&self, key: u32) -> &T {
        self.items[key as usize].as_ref().expect("vacant slab slot")
    }

    pub(crate) fn get_mut(&mut self, key: u32) -> &mut T {
        self.items[key as usize].as_mut().expect("vacant slab slot")
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.items
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (i as u32, v)))
    }
}
