//! The symbol table a [`NetLog`](crate::event::NetLog) stores its strings
//! in.
//!
//! Every event name, field key, string value and context file name a log
//! stores is interned here once by content, and the log's records and
//! field slots carry the 32-bit id instead of a [`Text`]. The table owns a
//! clone of each distinct string: a `'static` literal costs nothing, a
//! shared string one refcount, and a string seen again under another
//! `Rc` is dropped by its emitter, so the log keeps one copy per content.
//!
//! Two indexes find an id. The content index answers every question: open
//! addressing over the standard library's randomly keyed hash (a parsed
//! log's strings come from outside the program), no allocation on lookup.
//! In front of it sits a direct-mapped cache keyed by the string's address
//! and length, which is how a warm emit interns its `'static` names and
//! keys and its shared file and host names without hashing their bytes. Only
//! two kinds of address enter that cache: a `'static` string's, whose
//! memory is never freed, and the address of a string the table itself
//! holds a clone of, which cannot be freed while the table lives. So an
//! address in the cache always still holds the bytes it was cached for.

use crate::event::Text;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// A string's id in its log's symbol table.
pub(crate) type Sym = u32;

/// Ids fit in the low 29 bits: a record packs flags above its name id.
pub(crate) const MAX_SYMBOLS: usize = 1 << 29;

/// Slots of the address cache (16 bytes each).
const ADDR_SLOTS: usize = 1024;

/// One address-cache slot: the string's address and length, and its id.
/// Empty while `ptr` is 0, which no string's address is.
#[derive(Clone, Copy, Default)]
struct AddrSlot {
    ptr: usize,
    len: u32,
    id: Sym,
}

/// A content-index slot: 0 is empty, otherwise the high 32 bits of the
/// string's hash above `id + 1`, so a probe rejects most other strings
/// without reading them and a rehash reads no string.
type ContentSlot = u64;

#[derive(Clone, Default)]
pub(crate) struct Symbols {
    /// Id → string: the table's own clone of each.
    texts: Vec<Text>,
    /// Sum of the lengths of `texts`.
    text_bytes: usize,
    /// Open-addressed, linearly probed, at most half full; a power of two
    /// long once anything is interned.
    by_content: Vec<ContentSlot>,
    /// Direct-mapped address cache, allocated on the first intern.
    by_addr: Box<[AddrSlot]>,
    hasher: RandomState,
}

impl fmt::Debug for Symbols {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.texts).finish()
    }
}

fn addr_slot(ptr: usize, len: usize) -> usize {
    let h = (ptr ^ len.rotate_left(40)) as u64;
    (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - ADDR_SLOTS.trailing_zeros())) as usize
}

impl Symbols {
    /// The string behind `id`.
    pub(crate) fn str(&self, id: Sym) -> &str {
        &self.texts[id as usize]
    }

    /// The table's own [`Text`] for `id`.
    pub(crate) fn text(&self, id: Sym) -> &Text {
        &self.texts[id as usize]
    }

    /// The id of `s` if the table holds it. Interns nothing.
    pub(crate) fn find(&self, s: &str) -> Option<Sym> {
        self.find_hashed(s, self.hasher.hash_one(s))
    }

    fn find_hashed(&self, s: &str, h: u64) -> Option<Sym> {
        if self.by_content.is_empty() {
            return None;
        }
        let mask = self.by_content.len() - 1;
        let tag = h & !0xffff_ffff;
        let mut i = (h >> 32) as usize & mask;
        loop {
            let slot = self.by_content[i];
            if slot == 0 {
                return None;
            }
            let id = (slot as u32).wrapping_sub(1);
            if slot & !0xffff_ffff == tag && self.str(id) == s {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// The id of `t`'s content, adding it if the table has not seen it.
    pub(crate) fn intern(&mut self, t: &Text) -> Sym {
        let s = t.as_str();
        let (ptr, len) = (s.as_ptr() as usize, s.len());
        if self.by_addr.is_empty() {
            self.by_addr = vec![AddrSlot::default(); ADDR_SLOTS].into_boxed_slice();
        }
        let a = addr_slot(ptr, len);
        let cached = self.by_addr[a];
        if cached.ptr == ptr && cached.len as usize == len {
            return cached.id;
        }
        let h = self.hasher.hash_one(s);
        let id = match self.find_hashed(s, h) {
            // Another `Rc` with content the table holds: its address may
            // be freed and reused, so it is not cached.
            Some(id) if matches!(t, Text::Shared(_)) && self.str(id).as_ptr() as usize != ptr => {
                return id;
            }
            Some(id) => id,
            None => self.insert(t.clone(), h),
        };
        if let Ok(len) = u32::try_from(len) {
            self.by_addr[a] = AddrSlot { ptr, len, id };
        }
        id
    }

    fn insert(&mut self, t: Text, h: u64) -> Sym {
        let id = self.texts.len();
        assert!(id < MAX_SYMBOLS, "trace symbol table is full");
        if (id + 1) * 2 > self.by_content.len() {
            self.grow();
        }
        self.place((h & !0xffff_ffff) | (id as u64 + 1));
        self.text_bytes += t.len();
        self.texts.push(t);
        id as Sym
    }

    /// Put a slot at the first free place of its probe sequence.
    fn place(&mut self, slot: ContentSlot) {
        let mask = self.by_content.len() - 1;
        let mut i = (slot >> 32) as usize & mask;
        while self.by_content[i] != 0 {
            i = (i + 1) & mask;
        }
        self.by_content[i] = slot;
    }

    fn grow(&mut self) {
        let len = (self.by_content.len() * 2).max(16);
        let old = std::mem::replace(&mut self.by_content, vec![0; len]);
        for slot in old.into_iter().filter(|&s| s != 0) {
            self.place(slot);
        }
    }

    /// Bytes the table stores, from its lengths: the handles, the string
    /// bytes and both indexes.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.texts.len() * std::mem::size_of::<Text>()
            + self.text_bytes
            + self.by_content.len() * std::mem::size_of::<ContentSlot>()
            + self.by_addr.len() * std::mem::size_of::<AddrSlot>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn one_id_per_content_whatever_holds_it() {
        let mut t = Symbols::default();
        let a = t.intern(&Text::Static("host"));
        let shared = Text::from(String::from("host"));
        assert_eq!(t.intern(&shared), a);
        assert_eq!(t.intern(&Text::from(Rc::<str>::from("host"))), a);
        let b = t.intern(&Text::from(String::from("dallas0")));
        assert_ne!(a, b);
        assert_eq!(t.find("dallas0"), Some(b));
        assert_eq!(t.str(b), "dallas0");
        assert_eq!(t.find("never"), None);
        assert_eq!(t.texts.len(), 2);
    }

    #[test]
    fn lookups_intern_nothing() {
        let mut t = Symbols::default();
        assert_eq!(t.find("x"), None);
        assert!(t.texts.is_empty() && t.by_content.is_empty());
        t.intern(&Text::Static("y"));
        assert_eq!(t.find("x"), None);
        assert_eq!(t.texts.len(), 1);
    }

    #[test]
    fn the_cache_holds_only_addresses_the_table_keeps() {
        let mut t = Symbols::default();
        let first = Text::from(String::from("pcm.run1.f001"));
        let id = t.intern(&first);
        // A second Rc with the same content is found by content and left
        // out of the cache: the table does not own its address.
        let other = Text::from(String::from("pcm.run1.f001"));
        assert_eq!(t.intern(&other), id);
        let (p, n) = (other.as_ptr() as usize, other.len());
        assert_ne!(t.by_addr[addr_slot(p, n)].ptr, p);
        // The first one's address is the table's own, and is cached.
        let (p, n) = (first.as_ptr() as usize, first.len());
        assert_eq!(t.by_addr[addr_slot(p, n)].ptr, p);
        drop(first);
        assert_eq!(t.str(id), "pcm.run1.f001");
    }

    #[test]
    fn many_strings_survive_growth() {
        let mut t = Symbols::default();
        let ids: Vec<Sym> = (0..5_000)
            .map(|i| t.intern(&Text::from(format!("f{i}"))))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(t.find(&format!("f{i}")), Some(*id));
            assert_eq!(t.intern(&Text::from(format!("f{i}"))), *id);
        }
        assert!(t.by_content.len() >= 2 * ids.len());
        assert_eq!(t.find(""), None);
        let empty = t.intern(&Text::Static(""));
        assert_eq!(t.find(""), Some(empty));
    }
}
