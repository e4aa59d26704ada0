//! Compact binary persistence for [`KnowledgeGraph`].
//!
//! Length-prefixed little-endian encoding over plain `Vec<u8>`/`&[u8]`
//! (no external buffer crates). The indexes (label/type/subject/object)
//! are rebuilt on load rather than stored, so the format contains only
//! the canonical data.

use crate::model::{EntityId, KnowledgeGraph, Object, PropertyId, TypeId};

/// Format magic + version, bumped on breaking changes.
const MAGIC: &[u8; 8] = b"EMBLKG01";

fn put_u32_le(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32_le(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a borrowed byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err("truncated KG buffer".into());
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn get_u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn get_u32_le(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Capacity for `count` records of at least `min_bytes` each: never
    /// more than the rest of the buffer can hold, so a crafted count
    /// cannot reserve memory the buffer does not back.
    fn capacity(&self, count: usize, min_bytes: usize) -> usize {
        count.min(self.remaining() / min_bytes)
    }

    fn get_str(&mut self) -> Result<String, String> {
        if self.remaining() < 4 {
            return Err("truncated string length".into());
        }
        let len = self.get_u32_le()? as usize;
        if self.remaining() < len {
            return Err(format!("truncated string body ({len} bytes)"));
        }
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|e| format!("invalid utf8: {e}"))
    }
}

/// Serializes a knowledge graph to bytes.
pub fn kg_to_bytes(kg: &KnowledgeGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);

    put_u32_le(&mut buf, kg.num_types() as u32);
    for t in 0..kg.num_types() as u32 {
        put_str(&mut buf, kg.type_name(TypeId(t)));
        put_u32_le(&mut buf, kg.type_parent(TypeId(t)).0);
    }

    put_u32_le(&mut buf, kg.num_properties() as u32);
    for p in 0..kg.num_properties() as u32 {
        put_str(&mut buf, kg.property_name(PropertyId(p)));
    }

    put_u32_le(&mut buf, kg.num_entities() as u32);
    for e in kg.entities() {
        put_str(&mut buf, &e.label);
        put_u32_le(&mut buf, e.aliases.len() as u32);
        for a in &e.aliases {
            put_str(&mut buf, a);
        }
        put_u32_le(&mut buf, e.types.len() as u32);
        for t in &e.types {
            put_u32_le(&mut buf, t.0);
        }
    }

    put_u32_le(&mut buf, kg.num_facts() as u32);
    for f in kg.facts() {
        put_u32_le(&mut buf, f.subject.0);
        put_u32_le(&mut buf, f.property.0);
        match &f.object {
            Object::Entity(o) => {
                buf.push(0);
                put_u32_le(&mut buf, o.0);
            }
            Object::Literal(s) => {
                buf.push(1);
                put_str(&mut buf, s);
            }
        }
    }
    buf
}

/// Restores a knowledge graph serialized with [`kg_to_bytes`], rebuilding
/// all lookup indexes.
///
/// # Errors
/// Returns a description of the first structural problem (bad magic,
/// truncation, dangling ids, trailing bytes).
pub fn kg_from_bytes(bytes: &[u8]) -> Result<KnowledgeGraph, String> {
    let mut buf = Reader::new(bytes);
    if buf.remaining() < MAGIC.len() || buf.take(MAGIC.len())? != MAGIC {
        return Err("bad magic: not an EmbLookup KG file".into());
    }

    let mut kg = KnowledgeGraph::new();
    let n_types = buf.get_u32_le()? as usize;
    // a type is a string length and a parent id
    let mut parents = Vec::with_capacity(buf.capacity(n_types, 8));
    for _ in 0..n_types {
        let name = buf.get_str()?;
        parents.push(buf.get_u32_le()?);
        kg.add_type(name, None);
    }
    // fix parents in a second pass (add_type can't forward-reference)
    for (i, &p) in parents.iter().enumerate() {
        if p as usize >= n_types {
            return Err(format!("type {i} has dangling parent {p}"));
        }
        kg.set_type_parent(TypeId(i as u32), TypeId(p));
    }

    let n_props = buf.get_u32_le()? as usize;
    for _ in 0..n_props {
        let name = buf.get_str()?;
        kg.add_property(name);
    }

    let n_entities = buf.get_u32_le()? as usize;
    for _ in 0..n_entities {
        let label = buf.get_str()?;
        let n_aliases = buf.get_u32_le()? as usize;
        let mut aliases = Vec::with_capacity(buf.capacity(n_aliases, 4));
        for _ in 0..n_aliases {
            aliases.push(buf.get_str()?);
        }
        let n_t = buf.get_u32_le()? as usize;
        let mut types = Vec::with_capacity(buf.capacity(n_t, 4));
        for _ in 0..n_t {
            let t = buf.get_u32_le()?;
            if t as usize >= n_types {
                return Err(format!("entity {label:?} has dangling type {t}"));
            }
            types.push(TypeId(t));
        }
        kg.add_entity(label, aliases, types);
    }

    let n_facts = buf.get_u32_le()? as usize;
    for _ in 0..n_facts {
        let subject = buf.get_u32_le()?;
        let property = buf.get_u32_le()?;
        if subject as usize >= n_entities {
            return Err(format!("fact has dangling subject {subject}"));
        }
        if property as usize >= n_props {
            return Err(format!("fact has dangling property {property}"));
        }
        let tag = buf.get_u8()?;
        let object = match tag {
            0 => {
                let o = buf.get_u32_le()?;
                if o as usize >= n_entities {
                    return Err(format!("fact has dangling object {o}"));
                }
                Object::Entity(EntityId(o))
            }
            1 => Object::Literal(buf.get_str()?),
            other => return Err(format!("unknown object tag {other}")),
        };
        kg.add_fact(EntityId(subject), PropertyId(property), object);
    }
    if buf.remaining() > 0 {
        return Err(format!("{} trailing bytes after the last fact", buf.remaining()));
    }
    Ok(kg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthKgConfig};

    #[test]
    fn round_trip_preserves_everything() {
        let original = generate(SynthKgConfig::tiny(77)).kg;
        let bytes = kg_to_bytes(&original);
        let restored = kg_from_bytes(&bytes).unwrap();

        assert_eq!(original.num_entities(), restored.num_entities());
        assert_eq!(original.num_types(), restored.num_types());
        assert_eq!(original.num_properties(), restored.num_properties());
        assert_eq!(original.num_facts(), restored.num_facts());
        for (a, b) in original.entities().zip(restored.entities()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.aliases, b.aliases);
            assert_eq!(a.types, b.types);
        }
        // indexes were rebuilt: exact lookup still works
        let e = original.entities().nth(5).unwrap();
        assert_eq!(restored.find_exact(&e.label), original.find_exact(&e.label));
        // type hierarchy preserved
        for t in 0..original.num_types() as u32 {
            assert_eq!(
                original.type_parent(TypeId(t)),
                restored.type_parent(TypeId(t))
            );
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(kg_from_bytes(b"not a kg").is_err());
        let good = kg_to_bytes(&generate(SynthKgConfig::tiny(1)).kg);
        assert!(kg_from_bytes(&good[..good.len() / 2]).is_err());
    }

    /// Offsets of every record count in a `kg_to_bytes` buffer: the type,
    /// property, entity and fact counts and each entity's alias and type
    /// counts.
    fn count_fields(bytes: &[u8]) -> Vec<usize> {
        let at = |i: usize| u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]) as usize;
        let skip_str = |i: usize| i + 4 + at(i);
        let mut fields = vec![MAGIC.len()];
        let mut cur = MAGIC.len() + 4;
        for _ in 0..at(MAGIC.len()) {
            cur = skip_str(cur) + 4;
        }
        fields.push(cur);
        let props = at(cur);
        cur += 4;
        for _ in 0..props {
            cur = skip_str(cur);
        }
        fields.push(cur);
        let entities = at(cur);
        cur += 4;
        for _ in 0..entities {
            cur = skip_str(cur);
            fields.push(cur);
            let aliases = at(cur);
            cur += 4;
            for _ in 0..aliases {
                cur = skip_str(cur);
            }
            fields.push(cur);
            cur += 4 + 4 * at(cur);
        }
        fields.push(cur);
        let facts = at(cur);
        cur += 4;
        for _ in 0..facts {
            cur += 9;
            cur = if bytes[cur - 1] == 0 { cur + 4 } else { skip_str(cur) };
        }
        assert_eq!(cur, bytes.len());
        fields
    }

    #[test]
    fn rejects_every_truncation_and_every_crafted_count() {
        // every prefix of a real buffer, and each record count set to 0,
        // to one past the buffer, to 2^31 and to u32::MAX, is an `Err` —
        // never an abort on a reservation sized by the count
        let bytes = kg_to_bytes(&generate(SynthKgConfig::tiny(3)).kg);
        assert!(kg_from_bytes(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(kg_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let fields = count_fields(&bytes);
        assert!(fields.len() > 20, "{} count fields", fields.len());
        for &field in &fields {
            let original = &bytes[field..field + 4];
            let one_past = (bytes.len() - field - 4 + 1) as u32;
            for value in [0, one_past, 1 << 31, u32::MAX] {
                if value.to_le_bytes() == original {
                    continue;
                }
                let mut crafted = bytes.clone();
                crafted[field..field + 4].copy_from_slice(&value.to_le_bytes());
                assert!(kg_from_bytes(&crafted).is_err(), "count at {field} set to {value}");
            }
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let kg = KnowledgeGraph::new();
        let restored = kg_from_bytes(&kg_to_bytes(&kg)).unwrap();
        assert_eq!(restored.num_entities(), 0);
    }
}
