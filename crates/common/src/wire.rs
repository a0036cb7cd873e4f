//! One declaration per persisted document.
//!
//! Every single-record document — the `quickrecd` wire messages, the
//! store and format manifests, a trace-journal event, the replay queries
//! and their answers, the checkpoint-index header — is declared once,
//! with [`wire_struct!`](crate::wire_struct) or
//! [`wire_enum!`](crate::wire_enum): its fields in wire order, each
//! encoded by its type's [`Wire`] form or by the [`Codec`] it names
//! (`pub crc: u32 as Le`). The type, its encoder and decoder — and for an
//! enum `tag()`, `label()` and `KINDS` — all come from that declaration;
//! a document's `from_bytes` adds only the checks that are not layout
//! (a version it refuses, a range, a contradiction). Decoding is
//! panic-free: damage is a [`QrError::Corrupt`] naming the field and its
//! offset, and no list reserves more than the bytes left could hold.
//!
//! The multi-record logs ([`crate::frame::walk`]) and machine state are
//! not schema documents: they are group- and delta-coded streams.

use crate::cursor::ByteReader;
use crate::error::{QrError, Result};
use crate::frame::PayloadKind;
use crate::{varint, Cycle, ThreadId};

/// One type's own wire form.
pub trait Wire: Sized {
    /// Fewest bytes any value encodes to: what a list's claimed length
    /// is checked against before anything is reserved for it.
    const MIN: usize = 1;
    /// Appends the value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] for truncated or malformed bytes.
    fn get(r: &mut ByteReader<'_>) -> Result<Self>;
}

/// A field encoding other than its type's own, named in a declaration
/// as `field: T as C`.
pub trait Codec<T> {
    /// As [`Wire::MIN`].
    const MIN: usize;
    /// As [`Wire::put`].
    fn put(value: &T, out: &mut Vec<u8>);
    /// As [`Wire::get`].
    ///
    /// # Errors
    ///
    /// As [`Wire::get`].
    fn get(r: &mut ByteReader<'_>) -> Result<T>;
}

/// The codec of a field that names none: its type's [`Wire`] form.
pub struct Own;

impl<T: Wire> Codec<T> for Own {
    const MIN: usize = T::MIN;
    fn put(value: &T, out: &mut Vec<u8>) {
        value.put(out);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<T> {
        T::get(r)
    }
}

/// Fixed-width little-endian integers (`pub crc: u32 as Le`); a `u8` is
/// its one byte and a thread id its `u32`.
pub struct Le;

macro_rules! le {
    ($($int:ty => $read:ident),*) => {$(
        impl Codec<$int> for Le {
            const MIN: usize = std::mem::size_of::<$int>();
            #[inline]
            fn put(value: &$int, out: &mut Vec<u8>) {
                out.extend_from_slice(&value.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut ByteReader<'_>) -> Result<$int> {
                r.$read()
            }
        }
    )*};
}
le!(u8 => u8, u32 => u32, u64 => u64);

impl Codec<ThreadId> for Le {
    const MIN: usize = 4;
    #[inline]
    fn put(value: &ThreadId, out: &mut Vec<u8>) {
        out.extend_from_slice(&value.0.to_le_bytes());
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<ThreadId> {
        r.u32().map(ThreadId)
    }
}

/// A list of at most `MAX` elements (`pub files: Vec<File> as List<16>`):
/// a varint count, then the elements. The count must also fit what is
/// left of the buffer at `T::MIN` bytes an element, checked before
/// anything is reserved.
pub struct List<const MAX: u64>;

impl<T: Wire, const MAX: u64> Codec<Vec<T>> for List<MAX> {
    const MIN: usize = 1;
    fn put(items: &Vec<T>, out: &mut Vec<u8>) {
        varint::write_u64(out, items.len() as u64);
        items.iter().for_each(|item| item.put(out));
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Vec<T>> {
        let count = r.list_count(MAX, T::MIN)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

/// A value carried as its own length-prefixed document (a query inside a
/// QUERY request): a varint length, then exactly one encoded value.
pub struct Prefixed;

impl<T: Wire> Codec<T> for Prefixed {
    const MIN: usize = 1;
    fn put(value: &T, out: &mut Vec<u8>) {
        encode(value).put(out);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<T> {
        decode(r.nested()?)
    }
}

/// An optional trailing field, only ever a document's last: absent means
/// `T::default()`, which is never written, so documents from before the
/// field existed stay byte-identical and still decode.
pub struct Trailing;

impl<T: Wire + Default + PartialEq> Codec<T> for Trailing {
    const MIN: usize = 0;
    fn put(value: &T, out: &mut Vec<u8>) {
        if *value != T::default() {
            value.put(out);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<T> {
        if r.remaining() == 0 {
            return Ok(T::default());
        }
        T::get(r)
    }
}

/// A field that is not part of the record: nothing is written, and
/// decoding yields `T::default()` for the document's reader to fill (a
/// checkpoint index's snapshots are the records after its header).
pub struct Absent;

impl<T: Default> Codec<T> for Absent {
    const MIN: usize = 0;
    fn put(_: &T, _: &mut Vec<u8>) {}
    fn get(_: &mut ByteReader<'_>) -> Result<T> {
        Ok(T::default())
    }
}

/// Decodes one field through `C`, prefixing a damage report's detail
/// with the field's name.
///
/// # Errors
///
/// The codec's [`QrError::Corrupt`], renamed.
pub fn field<T, C: Codec<T>>(r: &mut ByteReader<'_>, name: &str) -> Result<T> {
    C::get(r).map_err(|e| match e {
        QrError::Corrupt { what, offset, detail } => {
            QrError::Corrupt { what, offset, detail: format!("{name}: {detail}") }
        }
        other => other,
    })
}

/// Reads one tag byte and maps it through `pick`; `None` means the tag
/// is unassigned (`unknown {what} {tag}`).
fn tag_byte<T>(
    r: &mut ByteReader<'_>,
    what: &str,
    pick: impl FnOnce(u8) -> Option<T>,
) -> Result<T> {
    let at = r.pos();
    let tag = r.u8()?;
    pick(tag).ok_or_else(|| r.corrupt_at(at, format!("unknown {what} {tag}")))
}

/// `value`'s encoding on its own.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Decodes what is left of `r` as exactly one `T`.
///
/// # Errors
///
/// [`QrError::Corrupt`] for malformed or trailing bytes.
pub fn decode<T: Wire>(mut r: ByteReader<'_>) -> Result<T> {
    let value = T::get(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Integers are LEB128 varints.
impl Wire for u64 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, *self);
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<u64> {
        r.varint()
    }
}

/// A `u32` is a varint too; a value above `u32::MAX` is refused.
impl Wire for u32 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, u64::from(*self));
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<u32> {
        let at = r.pos();
        let value = r.varint()?;
        u32::try_from(value).map_err(|_| r.corrupt_at(at, format!("{value} is out of range")))
    }
}

/// A cycle count is its varint.
impl Wire for Cycle {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Cycle> {
        r.varint().map(Cycle)
    }
}

/// A flag is one byte, strictly 0 or 1.
impl Wire for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<bool> {
        tag_byte(r, "flag byte", |tag| [false, true].get(usize::from(tag)).copied())
    }
}

/// Strings are length-prefixed UTF-8.
impl Wire for String {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<String> {
        let at = r.pos();
        String::from_utf8(r.prefixed()?.to_vec()).map_err(|_| r.corrupt_at(at, "not utf-8"))
    }
}

/// Blobs are length-prefixed raw bytes.
impl Wire for Vec<u8> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.len() as u64);
        out.extend_from_slice(self);
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Vec<u8>> {
        Ok(r.prefixed()?.to_vec())
    }
}

/// A list holds at most 2²⁰ elements unless its field names a tighter
/// [`List`] bound.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        List::<{ 1 << 20 }>::put(self, out);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Vec<T>> {
        List::<{ 1 << 20 }>::get(r)
    }
}

/// A pair is its two halves back to back.
impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN: usize = A::MIN + B::MIN;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<(A, B)> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// An option is a flag byte, strictly 0 or 1, then the value if 1.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(value) = self {
            value.put(out);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Option<T>> {
        if bool::get(r)? {
            T::get(r).map(Some)
        } else {
            Ok(None)
        }
    }
}

/// A payload kind is its container kind byte.
impl Wire for PayloadKind {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.code());
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<PayloadKind> {
        tag_byte(r, "payload kind", PayloadKind::from_code)
    }
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_codec {
    () => { $crate::wire::Own };
    ($codec:ty) => { $codec };
}

/// Declares a struct whose fields are encoded back to back, in
/// declaration order, each by its type's [`Wire`] form or by the codec
/// it names: `pub field: Type,` or `pub field: Type as Codec,`.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $fty:ty $(as $codec:ty)?, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $fty, )*
        }

        impl $crate::wire::Wire for $name {
            const MIN: usize =
                0 $( + <$crate::__wire_codec!($($codec)?) as $crate::wire::Codec<$fty>>::MIN )*;
            fn put(&self, out: &mut ::std::vec::Vec<u8>) {
                $( <$crate::__wire_codec!($($codec)?) as $crate::wire::Codec<$fty>>::put(&self.$field, out); )*
            }
            fn get(r: &mut $crate::cursor::ByteReader<'_>) -> $crate::Result<$name> {
                ::std::result::Result::Ok($name { $(
                    $field: $crate::wire::field::<$fty, $crate::__wire_codec!($($codec)?)>(r, stringify!($field))?,
                )* })
            }
        }
    };
}

/// Declares an enum encoded as one tag byte followed by the variant's
/// fields in declaration order. Each variant line reads
/// `tag "label" Name`, then `{ field: Type, .. }` (a field may name a
/// codec, as in [`wire_struct!`](crate::wire_struct)) or `(name: Type)`
/// if it carries data; the name of a tuple payload only labels decode
/// errors. `$what` names the tag in the unknown-tag error
/// (`unknown {what} {tag}`).
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident as $what:literal {
            $(
                $(#[$vmeta:meta])*
                $tag:literal $label:literal $variant:ident
                $( { $( $(#[$fmeta:meta])* $field:ident: $fty:ty $(as $codec:ty)?, )* } )?
                $( ( $inner:ident: $ity:ty ) )?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant $( { $( $(#[$fmeta])* $field: $fty, )* } )? $( ( $ity ) )?,
            )*
        }

        impl $name {
            /// Every variant's label, indexed by wire tag (a gap or a
            /// tag past the end fails to compile).
            pub const KINDS: [&'static str; [$($tag),*].len()] = {
                let mut kinds = [""; [$($tag),*].len()];
                $( kinds[$tag] = $label; )*
                kinds
            };

            /// The variant's wire tag: the first byte of its encoding.
            pub fn tag(&self) -> u8 {
                match self {
                    $( $name::$variant { .. } => $tag, )*
                }
            }

            /// Short label for tables and metrics.
            pub fn label(&self) -> &'static str {
                Self::KINDS[usize::from(self.tag())]
            }
        }

        impl $crate::wire::Wire for $name {
            fn put(&self, out: &mut ::std::vec::Vec<u8>) {
                out.push(self.tag());
                match self {
                    $(
                        $name::$variant $( { $($field,)* } )? $( ($inner) )? => {
                            $( $( <$crate::__wire_codec!($($codec)?) as $crate::wire::Codec<$fty>>::put($field, out); )* )?
                            $( $crate::wire::Wire::put($inner, out); )?
                        }
                    )*
                }
            }
            fn get(r: &mut $crate::cursor::ByteReader<'_>) -> $crate::Result<$name> {
                let at = r.pos();
                match r.u8()? {
                    $(
                        $tag => ::std::result::Result::Ok($name::$variant
                            $( { $(
                                $field: $crate::wire::field::<$fty, $crate::__wire_codec!($($codec)?)>(r, stringify!($field))?,
                            )* } )?
                            $( ($crate::wire::field::<$ity, $crate::wire::Own>(r, stringify!($inner))?) )?),
                    )*
                    tag => ::std::result::Result::Err(r.corrupt_at(at, format!("unknown {} {tag}", $what))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::wire_struct! {
        /// Every codec a field can name.
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct Sample {
            pub id: u64,
            pub crc: u32 as Le,
            pub tid: ThreadId as Le,
            pub bytes: Vec<u8>,
            pub maybe: Option<String>,
            pub kinds: Vec<PayloadKind> as List<3>,
            pub cached: Vec<u64> as Absent,
            pub tail: bool as Trailing,
        }
    }

    crate::wire_enum! {
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Shape as "shape tag" {
            0 "unit" Unit,
            1 "named" Named { at: Cycle, inner: Sample as Prefixed, },
            2 "tuple" Tuple(sample: Sample),
        }
    }

    fn sample() -> Sample {
        Sample {
            id: 300,
            crc: 0xdead_beef,
            tid: ThreadId(7),
            bytes: vec![1, 2],
            maybe: Some("x".into()),
            kinds: vec![PayloadKind::Meta, PayloadKind::Wire],
            cached: Vec::new(),
            tail: true,
        }
    }

    fn decode_all<T: Wire>(bytes: &[u8]) -> Result<T> {
        decode(ByteReader::new(bytes, "test"))
    }

    #[test]
    fn declared_layouts_are_their_fields_back_to_back() {
        let bytes = encode(&sample());
        let want = [
            &[0xac, 0x02][..],         // id 300
            &[0xef, 0xbe, 0xad, 0xde], // crc
            &[7, 0, 0, 0],             // tid
            &[2, 1, 2],                // bytes
            &[1, 1, b'x'],             // maybe
            &[2, 2, 4],                // kinds
            &[1],                      // tail
        ]
        .concat();
        assert_eq!(bytes, want);
        assert_eq!(decode_all::<Sample>(&bytes).unwrap(), sample());
        // A default trailing field writes nothing and reads back absent.
        let short = Sample { tail: false, ..sample() };
        assert_eq!(encode(&short), want[..want.len() - 1]);
        assert_eq!(decode_all::<Sample>(&want[..want.len() - 1]).unwrap(), short);
        assert_eq!(<Sample as Wire>::MIN, 1 + 4 + 4 + 1 + 1 + 1);
    }

    #[test]
    fn enums_are_a_tag_then_the_variant() {
        for shape in [Shape::Unit, Shape::Named { at: Cycle(5), inner: sample() }, Shape::Tuple(sample())] {
            let bytes = encode(&shape);
            assert_eq!(bytes[0], shape.tag());
            assert_eq!(shape.label(), Shape::KINDS[usize::from(shape.tag())]);
            assert_eq!(decode_all::<Shape>(&bytes).unwrap(), shape);
        }
        let inner = encode(&sample());
        let named = encode(&Shape::Named { at: Cycle(5), inner: sample() });
        assert_eq!(named, [&[1, 5, inner.len() as u8][..], &inner].concat(), "prefixed document");
        assert_eq!(Shape::KINDS, ["unit", "named", "tuple"]);
    }

    #[test]
    fn every_refusal_names_its_field_and_offset() {
        let err = |bytes: &[u8]| decode_all::<Shape>(bytes).unwrap_err().to_string();
        // A `Tuple` whose sample is all zeros up to `maybe`.
        let tuple = |rest: &[u8]| [&[2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0][..], rest].concat();
        let cases = [
            (err(&[9]), "unknown shape tag 9"),
            (err(&[]), "need 1 bytes, 0 remain"),
            (err(&[0, 0]), "1 trailing bytes"),
            (err(&tuple(&[2])), "maybe: unknown flag byte 2"),
            (err(&tuple(&[0, 4])), "kinds: implausible count 4 (max 3)"),
            (err(&tuple(&[0, 2, 9])), "implausible count 2: 1 bytes remain"),
            (err(&tuple(&[0, 1, 99])), "kinds: unknown payload kind 99"),
            (err(&tuple(&[0, 0, 2])), "tail: unknown flag byte 2"),
            (err(&[2, 0, 0, 0, 0]), "crc: need 4 bytes, 3 remain"),
            // A prefixed document must span its length exactly.
            (err(&[1, 0, 1, 0]), "inner: crc: need 4 bytes, 0 remain"),
            (err(&[1, 0, 30]), "inner: need 30 bytes, 0 remain"),
        ];
        for (error, want) in cases {
            assert!(error.contains(want), "`{error}` does not name `{want}`");
        }
        match decode_all::<Shape>(&tuple(&[0, 1, 99])).unwrap_err() {
            QrError::Corrupt { offset, .. } => assert_eq!(offset, 13),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn u32_varints_refuse_values_past_u32_max() {
        let bytes = encode(&(u64::from(u32::MAX) + 1));
        assert!(decode_all::<u32>(&bytes).unwrap_err().to_string().contains("out of range"));
        assert_eq!(decode_all::<u32>(&encode(&u32::MAX)).unwrap(), u32::MAX);
    }
}
