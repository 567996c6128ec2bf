//! A segment: the per-class record arena, now multi-versioned.
//!
//! The object-slicing model stores the slices of all objects of one class in
//! that class's segment, which is what makes same-class slices cluster on the
//! same pages (the locality property Table 1 of the paper relies on).
//!
//! Each slot holds a small **version chain** ordered by write stamp. A
//! mutation never overwrites the current fields in place — it pushes a new
//! [`Version`] stamped by the mutating batch; a delete pushes a *tombstone*
//! (a version with no fields). Readers resolve a slot against an epoch:
//! the newest version whose stamp is ≤ the epoch. Page accounting tracks
//! only the **current** (latest) version — superseded versions are pure
//! history awaiting [`Segment::gc`], which prunes everything unreachable
//! from the GC watermark and only then recycles fully-dead slots.

use crate::page::PageSet;
use crate::payload::Payload;

/// Fixed per-record header overhead charged to the record's page
/// (slot pointer + length + oid back-pointer, as a real slotted page would).
pub(crate) const RECORD_OVERHEAD: usize = 16;

/// One entry in a slot's version chain. `fields: None` is a tombstone: the
/// record is deleted at and after `stamp`.
#[derive(Debug, Clone)]
pub(crate) struct Version<P> {
    pub stamp: u64,
    pub fields: Option<Vec<P>>,
}

/// A record slot: its version chain (oldest first, stamp-sorted) plus page
/// accounting for the current version only.
#[derive(Debug, Clone)]
pub(crate) struct Record<P> {
    pub versions: Vec<Version<P>>,
    pub page: u32,
    pub bytes: usize,
}

impl<P> Record<P> {
    /// The latest version's fields; `None` when the record is currently a
    /// tombstone.
    pub fn current(&self) -> Option<&Vec<P>> {
        self.versions.last().and_then(|v| v.fields.as_ref())
    }

    /// The fields visible at `epoch`: the newest version stamped ≤ `epoch`.
    /// `None` if the record did not exist yet or was deleted at that epoch.
    pub fn visible_at(&self, epoch: u64) -> Option<&Vec<P>> {
        self.versions
            .iter()
            .rev()
            .find(|v| v.stamp <= epoch)
            .and_then(|v| v.fields.as_ref())
    }

    /// Resolve against an optional pinned epoch (`None` = latest).
    pub fn fields_at(&self, epoch: Option<u64>) -> Option<&Vec<P>> {
        match epoch {
            Some(e) => self.visible_at(e),
            None => self.current(),
        }
    }

    /// Superseded (non-current) version entries in this chain.
    pub fn history_len(&self) -> usize {
        self.versions.len().saturating_sub(1)
    }

    /// Insert a version keeping the chain stamp-sorted. Concurrent tickets
    /// can finish out of stamp order, so a late-arriving lower stamp is
    /// spliced into place; equal stamps append after (latest-of-equals
    /// wins on the reverse-scan in [`Record::visible_at`]).
    fn push_version(&mut self, version: Version<P>) {
        match self.versions.last() {
            Some(last) if last.stamp > version.stamp => {
                let pos = self.versions.partition_point(|v| v.stamp <= version.stamp);
                self.versions.insert(pos, version);
            }
            _ => self.versions.push(version),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Segment<P> {
    pub name: String,
    slots: Vec<Option<Record<P>>>,
    free: Vec<u32>,
    pub pages: PageSet,
}

pub(crate) fn record_bytes<P: Payload>(fields: &[P]) -> usize {
    RECORD_OVERHEAD + fields.iter().map(|f| f.byte_size()).sum::<usize>()
}

impl<P: Payload> Segment<P> {
    pub fn new(name: String) -> Self {
        Segment { name, slots: Vec::new(), free: Vec::new(), pages: PageSet::default() }
    }

    /// Insert a record as a single version stamped `stamp`; returns
    /// (slot, page). Only slots reclaimed by [`Segment::gc`] are reused —
    /// a tombstoned slot still carries history some pinned reader needs.
    pub fn insert(&mut self, fields: Vec<P>, page_size: usize, stamp: u64) -> (u32, u32) {
        let bytes = record_bytes(&fields);
        let page = self.pages.place(bytes, page_size);
        let record =
            Record { versions: vec![Version { stamp, fields: Some(fields) }], page, bytes };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(record);
                slot
            }
            None => {
                self.slots.push(Some(record));
                (self.slots.len() - 1) as u32
            }
        };
        (slot, page)
    }

    /// Re-create a record in a *specific* slot (snapshot decode). The slot
    /// must currently be empty; the record starts as a single version with
    /// the bootstrap stamp 0, visible at every epoch.
    pub fn restore(&mut self, slot: u32, fields: Vec<P>, page_size: usize) {
        let bytes = record_bytes(&fields);
        let page = self.pages.place(bytes, page_size);
        while self.slots.len() <= slot as usize {
            // Padding holes are genuinely free slots and must be reusable.
            self.free.push(self.slots.len() as u32);
            self.slots.push(None);
        }
        debug_assert!(self.slots[slot as usize].is_none(), "restore over live record");
        self.free.retain(|s| *s != slot);
        self.slots[slot as usize] =
            Some(Record { versions: vec![Version { stamp: 0, fields: Some(fields) }], page, bytes });
    }

    /// Raw access to a slot's record (version chain included).
    pub fn record(&self, slot: u32) -> Option<&Record<P>> {
        self.slots.get(slot as usize).and_then(|r| r.as_ref())
    }

    /// The fields visible at `epoch` (`None` = latest) for a slot.
    pub fn fields_at(&self, slot: u32, epoch: Option<u64>) -> Option<&Vec<P>> {
        self.record(slot).and_then(|r| r.fields_at(epoch))
    }

    /// Apply a field mutation as a **new version** stamped `stamp`: the
    /// current fields are cloned, `f` edits the clone, and on `Ok` the
    /// result is pushed onto the chain (page accounting follows the new
    /// current size — shrink in place, grow in place, or relocate).
    ///
    /// Returns `None` when the slot is unknown or currently deleted;
    /// `Some(Err(e))` passes through `f`'s error with **no version pushed**.
    /// On success the payload is `(f's result, page, moved)`.
    pub fn modify<R, E>(
        &mut self,
        slot: u32,
        stamp: u64,
        page_size: usize,
        f: impl FnOnce(&mut Vec<P>) -> Result<R, E>,
    ) -> Option<Result<(R, u32, bool), E>> {
        let record = self.slots.get_mut(slot as usize)?.as_mut()?;
        let mut fields = record.current()?.clone();
        let out = match f(&mut fields) {
            Ok(r) => r,
            Err(e) => return Some(Err(e)),
        };
        let new_bytes = record_bytes(&fields);
        let old_bytes = record.bytes;
        let old_page = record.page;
        record.push_version(Version { stamp, fields: Some(fields) });
        let (page, moved) = if new_bytes == old_bytes {
            (old_page, false)
        } else if new_bytes < old_bytes {
            self.pages.shrink(old_page, old_bytes - new_bytes);
            (old_page, false)
        } else if self.pages.try_grow(old_page, new_bytes - old_bytes, page_size) {
            (old_page, false)
        } else {
            // Relocate: release old space, place at a fresh page.
            self.pages.release(old_page, old_bytes);
            let new_page = self.pages.place(new_bytes, page_size);
            (new_page, true)
        };
        let record = self.slots[slot as usize].as_mut().unwrap();
        record.page = page;
        record.bytes = new_bytes;
        Some(Ok((out, page, moved)))
    }

    /// Delete a record by pushing a tombstone stamped `stamp`, returning a
    /// clone of the fields it superseded. The page charge is released but
    /// the slot is **not** recycled — pinned readers may still resolve the
    /// live history; [`Segment::gc`] reclaims the slot once unreachable.
    pub fn free(&mut self, slot: u32, stamp: u64) -> Option<Vec<P>> {
        let record = self.slots.get_mut(slot as usize)?.as_mut()?;
        let fields = record.current()?.clone();
        record.push_version(Version { stamp, fields: None });
        let page = record.page;
        let bytes = record.bytes;
        record.page = 0;
        record.bytes = 0;
        self.pages.release(page, bytes);
        Some(fields)
    }

    /// Prune version history unreachable from `watermark`: for every slot,
    /// drop all versions older than the one visible at the watermark, and
    /// recycle slots whose only surviving version is a tombstone. Returns
    /// the number of version entries reclaimed.
    pub fn gc(&mut self, watermark: u64) -> u64 {
        let mut reclaimed = 0u64;
        for i in 0..self.slots.len() {
            let Some(record) = self.slots[i].as_mut() else { continue };
            // Index of the version visible at the watermark (newest with
            // stamp ≤ watermark); everything before it is unreachable.
            let visible = record.versions.iter().rposition(|v| v.stamp <= watermark);
            if let Some(keep_from) = visible {
                if keep_from > 0 {
                    record.versions.drain(..keep_from);
                    reclaimed += keep_from as u64;
                }
            }
            // A slot whose entire surviving chain is a single tombstone
            // visible at the watermark is dead to every possible reader.
            if record.versions.len() == 1
                && record.versions[0].fields.is_none()
                && record.versions[0].stamp <= watermark
            {
                reclaimed += 1;
                self.slots[i] = None;
                self.free.push(i as u32);
            }
        }
        reclaimed
    }

    /// Superseded (non-current) version entries across the segment.
    pub fn version_backlog(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .map(|r| {
                let hist = r.history_len() as u64;
                // A slot currently tombstoned carries the tombstone itself
                // as reclaimable backlog too.
                if r.current().is_none() { hist + 1 } else { hist }
            })
            .sum()
    }

    /// Iterate `(slot, fields)` pairs visible at `epoch` (`None` = latest)
    /// in slot order (page-clustered for append-mostly workloads).
    pub fn iter_at(&self, epoch: Option<u64>) -> impl Iterator<Item = (u32, &Vec<P>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, r)| {
                r.as_ref().and_then(|rec| rec.fields_at(epoch)).map(|f| (i as u32, f))
            })
    }

    /// Iterate `(slot, record)` pairs whose slot is occupied (live or
    /// tombstoned) — raw chain access for snapshot encoding and scrubbing.
    pub fn iter_records(&self) -> impl Iterator<Item = (u32, &Record<P>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|rec| (i as u32, rec)))
    }

    /// Number of records live at the latest epoch.
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().filter(|r| r.current().is_some()).count()
    }

    /// Highest slot index ever used (for snapshot encoding).
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::SimplePayload as SP;

    const PS: usize = 128;

    fn set_field(seg: &mut Segment<SP>, slot: u32, stamp: u64, idx: usize, v: SP) {
        seg.modify(slot, stamp, PS, |fields| {
            fields[idx] = v;
            Ok::<(), ()>(())
        })
        .unwrap()
        .unwrap();
    }

    #[test]
    fn insert_get_free_roundtrip() {
        let mut seg: Segment<SP> = Segment::new("Person".into());
        let (slot, _page) = seg.insert(vec![SP::Int(1), SP::Str("ann".into())], PS, 1);
        assert_eq!(seg.len(), 1);
        assert_eq!(seg.fields_at(slot, None).unwrap()[1], SP::Str("ann".into()));
        let fields = seg.free(slot, 2).unwrap();
        assert_eq!(fields.len(), 2);
        assert_eq!(seg.len(), 0);
        assert!(seg.fields_at(slot, None).is_none(), "deleted at latest");
        assert!(seg.fields_at(slot, Some(1)).is_some(), "still visible at epoch 1");
    }

    #[test]
    fn freed_slots_are_recycled_after_gc() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(1)], PS, 1);
        let (_b, _) = seg.insert(vec![SP::Int(2)], PS, 2);
        seg.free(a, 3);
        // Before GC the tombstoned slot still holds history for pinned
        // readers — a fresh insert must not reuse it.
        let (c, _) = seg.insert(vec![SP::Int(3)], PS, 4);
        assert_ne!(c, a, "tombstoned slot must not be reused before gc");
        let reclaimed = seg.gc(4);
        assert!(reclaimed >= 1);
        let (d, _) = seg.insert(vec![SP::Int(4)], PS, 5);
        assert_eq!(d, a, "slot recycled once history is unreachable");
    }

    #[test]
    fn restore_rebuilds_exact_slot() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(1)], PS, 1);
        let fields = seg.free(a, 2).unwrap();
        seg.gc(2);
        seg.restore(a, fields, PS);
        assert_eq!(seg.fields_at(a, None).unwrap()[0], SP::Int(1));
        // Restored records are visible at every epoch (bootstrap stamp 0).
        assert_eq!(seg.fields_at(a, Some(0)).unwrap()[0], SP::Int(1));
        // The free list no longer offers slot `a`.
        let (b, _) = seg.insert(vec![SP::Int(2)], PS, 3);
        assert_ne!(a, b);
    }

    #[test]
    fn growth_past_page_capacity_relocates() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        // Several records nearly filling page 0 (each 16 + 9 = 25 bytes).
        let (a, p0) = seg.insert(vec![SP::Int(1)], PS, 1);
        for _ in 0..3 {
            seg.insert(vec![SP::Int(0)], PS, 1);
        }
        assert_eq!(seg.pages.page_count(), 1);
        // Grow record a by a large string → must move to a fresh page.
        let (_, p_new, moved) = seg
            .modify(a, 2, PS, |fields| {
                fields.push(SP::Str("x".repeat(120)));
                Ok::<(), ()>(())
            })
            .unwrap()
            .unwrap();
        assert!(moved);
        assert_ne!(p_new, p0);
    }

    #[test]
    fn shrink_stays_in_place() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, p0) = seg.insert(vec![SP::Str("x".repeat(50))], PS, 1);
        let (_, p, moved) = seg
            .modify(a, 2, PS, |fields| {
                fields[0] = SP::Int(1);
                Ok::<(), ()>(())
            })
            .unwrap()
            .unwrap();
        assert!(!moved);
        assert_eq!(p, p0);
    }

    #[test]
    fn iter_skips_freed() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(1)], PS, 1);
        let (_b, _) = seg.insert(vec![SP::Int(2)], PS, 2);
        seg.free(a, 3);
        let live: Vec<u32> = seg.iter_at(None).map(|(s, _)| s).collect();
        assert_eq!(live, vec![1]);
        // But the pre-delete epoch still sees both.
        let pinned: Vec<u32> = seg.iter_at(Some(2)).map(|(s, _)| s).collect();
        assert_eq!(pinned, vec![0, 1]);
    }

    #[test]
    fn epoch_reads_are_repeatable_across_overwrites() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(10)], PS, 1);
        set_field(&mut seg, a, 5, 0, SP::Int(50));
        set_field(&mut seg, a, 9, 0, SP::Int(90));
        assert_eq!(seg.fields_at(a, Some(1)).unwrap()[0], SP::Int(10));
        assert_eq!(seg.fields_at(a, Some(4)).unwrap()[0], SP::Int(10));
        assert_eq!(seg.fields_at(a, Some(5)).unwrap()[0], SP::Int(50));
        assert_eq!(seg.fields_at(a, Some(8)).unwrap()[0], SP::Int(50));
        assert_eq!(seg.fields_at(a, None).unwrap()[0], SP::Int(90));
        assert!(seg.fields_at(a, Some(0)).is_none(), "not yet inserted at epoch 0");
    }

    #[test]
    fn failed_modify_pushes_no_version() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(1)], PS, 1);
        let r = seg.modify(a, 2, PS, |_| Err::<(), &str>("nope")).unwrap();
        assert!(r.is_err());
        assert_eq!(seg.record(a).unwrap().versions.len(), 1);
        assert_eq!(seg.fields_at(a, None).unwrap()[0], SP::Int(1));
    }

    #[test]
    fn gc_prunes_superseded_versions() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(1)], PS, 1);
        set_field(&mut seg, a, 2, 0, SP::Int(2));
        set_field(&mut seg, a, 3, 0, SP::Int(3));
        assert_eq!(seg.version_backlog(), 2);
        // Watermark 2: the version at stamp 2 is still visible to a pinned
        // reader; only the stamp-1 original is unreachable.
        assert_eq!(seg.gc(2), 1);
        assert_eq!(seg.fields_at(a, Some(2)).unwrap()[0], SP::Int(2));
        assert_eq!(seg.gc(3), 1);
        assert_eq!(seg.version_backlog(), 0);
        assert_eq!(seg.fields_at(a, None).unwrap()[0], SP::Int(3));
    }

    #[test]
    fn page_accounting_tracks_current_version_only() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Str("x".repeat(40))], PS, 1);
        let before = seg.pages.bytes_used();
        set_field(&mut seg, a, 2, 0, SP::Int(1));
        assert!(
            seg.pages.bytes_used() < before,
            "history bytes are not page-charged: {} vs {}",
            seg.pages.bytes_used(),
            before
        );
        seg.free(a, 3);
        assert_eq!(seg.pages.bytes_used(), 0);
    }
}
