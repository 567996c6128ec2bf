//! Whole-database snapshots: schema + objects + paged store, in one binary
//! blob. Completes the persistence story of the storage substrate — a TSE
//! database survives process restarts with every class, view-relevant
//! derivation, object slice and attribute value intact.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use tse_storage::{decode_store_with, encode_store, StorageError, StoreConfig};

use crate::database::Database;
use crate::error::{ModelError, ModelResult};
use crate::schema::Schema;

const MAGIC: &[u8; 8] = b"TSEDB001";

/// Serialize an entire database.
pub fn encode_database(db: &Database) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    // Store blob, length-prefixed.
    let store_bytes = encode_store(db.store());
    buf.put_u64(store_bytes.len() as u64);
    buf.put_slice(&store_bytes);
    // Fold late (data-plane-assigned) segments into the persisted schema so
    // the restored database needs no overlay.
    db.schema_for_snapshot().encode_into(&mut buf);
    db.encode_objects_into(&mut buf);
    buf.freeze()
}

/// Restore a database from bytes produced by [`encode_database`]. Runtime
/// store knobs (stripe count, auto-checkpoint threshold) take the process
/// default; see [`decode_database_with`] to supply them.
pub fn decode_database(bytes: Bytes) -> ModelResult<Database> {
    decode_database_with(bytes, StoreConfig::default())
}

/// Restore a database, threading `runtime` store knobs through to
/// [`tse_storage::decode_store_with`] (persisted `page_size`/`buffer_pages`
/// still win — they shape the stored layout).
pub fn decode_database_with(mut bytes: Bytes, runtime: StoreConfig) -> ModelResult<Database> {
    if bytes.remaining() < MAGIC.len() {
        return Err(ModelError::Storage(StorageError::Corrupt("snapshot too short".into())));
    }
    let mut magic = [0u8; 8];
    bytes.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(ModelError::Storage(StorageError::Corrupt("bad database magic".into())));
    }
    if bytes.remaining() < 8 {
        return Err(ModelError::Storage(StorageError::Corrupt("truncated store length".into())));
    }
    let store_len = bytes.get_u64() as usize;
    if bytes.remaining() < store_len {
        return Err(ModelError::Storage(StorageError::Corrupt("truncated store blob".into())));
    }
    let store_bytes = bytes.copy_to_bytes(store_len);
    let store = decode_store_with(store_bytes, runtime)?;
    let schema = Schema::decode_from(&mut bytes)?;
    let (objects, next_oid) = Database::decode_objects_from(&mut bytes)?;
    Ok(Database::from_parts(schema, store, objects, next_oid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derivation::Derivation;
    use crate::predicate::{CmpOp, Predicate};
    use crate::property::PropertyDef;
    use crate::value::{Value, ValueType};

    fn build() -> Database {
        let mut db = Database::default();
        let person = db.schema_mut().create_base_class("Person", &[]).unwrap();
        db.schema_mut()
            .add_local_prop(person, PropertyDef::stored("name", ValueType::Str, Value::Null), None)
            .unwrap();
        db.schema_mut()
            .add_local_prop(person, PropertyDef::stored("age", ValueType::Int, Value::Int(0)), None)
            .unwrap();
        let student = db.schema_mut().create_base_class("Student", &[person]).unwrap();
        db.schema_mut()
            .create_virtual_class(
                "Adult",
                Derivation::Select { src: person, pred: Predicate::cmp("age", CmpOp::Ge, 18) },
            )
            .unwrap();
        db.schema_mut()
            .create_refine_class(
                "Student+",
                student,
                vec![PropertyDef::stored("register", ValueType::Bool, Value::Bool(false))],
                vec![],
            )
            .unwrap();
        let o1 = db.create_object(person, &[("name", "ann".into()), ("age", Value::Int(30))]).unwrap();
        let o2 = db.create_object(student, &[("name", "bob".into())]).unwrap();
        let splus = db.schema().by_name("Student+").unwrap();
        db.write_attr(o2, splus, "register", Value::Bool(true)).unwrap();
        let _ = o1;
        db
    }

    #[test]
    fn database_roundtrips_completely() {
        let db = build();
        let bytes = encode_database(&db);
        let restored = decode_database(bytes).unwrap();

        // Schema identity.
        assert_eq!(restored.schema().class_count(), db.schema().class_count());
        for id in db.schema().class_ids() {
            let a = db.schema().class(id).unwrap();
            let b = restored.schema().class(id).unwrap();
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.direct_supers(), b.direct_supers());
            assert_eq!(a.stored_layout(), b.stored_layout());
            assert_eq!(db.schema().type_keys(id).unwrap(), restored.schema().type_keys(id).unwrap());
        }
        // Objects and values.
        let person = restored.schema().by_name("Person").unwrap();
        let splus = restored.schema().by_name("Student+").unwrap();
        let oids: Vec<_> = restored.all_objects().collect();
        assert_eq!(oids.len(), 2);
        assert_eq!(
            restored.read_attr(oids[0], person, "name").unwrap(),
            Value::Str("ann".into())
        );
        assert_eq!(restored.read_attr(oids[1], splus, "register").unwrap(), Value::Bool(true));
        // Derived extents still work.
        let adult = restored.schema().by_name("Adult").unwrap();
        assert!(restored.extent(adult).unwrap().contains(&oids[0]));
        assert!(!restored.extent(adult).unwrap().contains(&oids[1]));
    }

    #[test]
    fn restored_database_accepts_further_mutation() {
        let db = build();
        let mut restored = decode_database(encode_database(&db)).unwrap();
        let person = restored.schema().by_name("Person").unwrap();
        let o3 = restored.create_object(person, &[("name", "carol".into())]).unwrap();
        assert!(restored.extent(person).unwrap().contains(&o3));
        // Fresh oids don't collide with restored ones.
        assert_eq!(restored.object_count(), 3);
        // New property keys don't collide either.
        let key = restored
            .schema_mut()
            .add_local_prop(person, PropertyDef::stored("zzz", ValueType::Int, Value::Int(0)), None)
            .unwrap();
        for id in restored.schema().class_ids().collect::<Vec<_>>() {
            for lp in restored.schema().class(id).unwrap().locals() {
                if lp.def.name != "zzz" {
                    assert_ne!(lp.def.key, key);
                }
            }
        }
    }

    #[test]
    fn corrupt_snapshots_error_not_panic() {
        assert!(decode_database(Bytes::from_static(b"nope")).is_err());
        let db = build();
        let good = encode_database(&db);
        for cut in (0..good.len()).step_by(97) {
            let _ = decode_database(good.slice(..cut));
        }
    }
}
