//! The one field codec behind every wire and journal message
//! (DESIGN.md §4.10, §4.14).
//!
//! A message is declared once, with `wire!`: one row per variant
//! naming its opcode (or journal tag) and the [`Shape`] of each field.
//! The macro emits the enum itself and its [`Message`] impl — the
//! opcode, the body encoder and the body decoder — so a variant's layout
//! is written in one place. The data plane (`rpc`), the meta plane
//! (`meta`) and the journal (`metalog`) are three such tables; a frame
//! header (`spcache-net`'s `frame`) or a record header (`metalog`) is
//! all each plane adds.
//!
//! Every value is read through one bounds-checked [`Reader`] and written
//! through one [`Writer`], little-endian throughout. The shapes:
//!
//! | shape | bytes |
//! |---|---|
//! | `u8`, `u32`, `u64` | the integer |
//! | `bool` | `u8`, any non-zero byte reads `true` |
//! | `f64` | its bits as a `u64` |
//! | `usize` | a `u64` (a worker index or a count as a scalar) |
//! | [`Usize32`] | a `usize` as a `u32` (a server in a wire placement) |
//! | `String` | `u32` length, UTF-8 bytes |
//! | `PartKey`, `FileIntegrity`, ... | their fields in order (`wire!`'s struct form) |
//! | `Vec<S>` | `u32` count, `S` each |
//! | `Option<S>` | `u8` 0, or `u8` 1 then `S` |
//! | `(A, B)`, `(A, B, C)` | each in order |
//! | `Box<S>`, a `wire!` enum | an enum is its code byte, then its body |
//! | [`Tail`] | the rest of the body, zero-copy both ways |
//! | [`Rest`] | the rest of the body, copied |
//!
//! Decoding never panics and never over-reads: every shortfall, bad tag
//! or length lie is [`StoreError::Codec`]. A list refuses a count whose
//! entries, at their shape's fewest bytes, could not fit in what is left
//! before it reserves anything.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use bytes::Bytes;

use crate::rpc::StoreError;

/// A [`StoreError::Codec`] carrying `msg`.
pub fn codec_error(msg: impl Into<String>) -> StoreError {
    StoreError::Codec(msg.into())
}

/// A bounds-checked cursor over a message body.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The buffer as shared bytes, when it is one: a [`Tail`] is then a
    /// view of it rather than a copy.
    shared: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` from its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0, shared: None }
    }

    /// A reader over `buf` from `pos`, whose [`Tail`] is zero-copy.
    pub fn shared(buf: &'a Bytes, pos: usize) -> Self {
        Reader { buf, pos: pos.min(buf.len()), shared: Some(buf) }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when fewer remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let range = self.pos..self.pos.saturating_add(n);
        let out = self.buf.get(range).ok_or_else(|| codec_error("truncated frame body"))?;
        self.pos += n;
        Ok(out)
    }

    /// The next `N` bytes as an array.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when fewer remain.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one value of shape `S`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] for bytes that are not an `S`.
    pub fn get<S: Shape>(&mut self) -> Result<S::Value, StoreError> {
        S::get(self)
    }

    /// Bytes left.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Everything left, consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    /// A list's `u32` count, refused when `count × min` bytes could not
    /// fit in what is left.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] for a short count or a length lie.
    pub fn count(&mut self, min: usize) -> Result<usize, StoreError> {
        let n = self.get::<u32>()? as usize;
        if n.saturating_mul(min) > self.remaining() {
            return Err(codec_error("list length exceeds frame"));
        }
        Ok(n)
    }

    /// Ends the body: trailing bytes are a protocol violation.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] naming how many bytes were left.
    pub fn finish(self) -> Result<(), StoreError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(codec_error(format!("{n} trailing bytes after message body"))),
        }
    }
}

/// An append-only message encoder. A [`Tail`] is held apart, so a
/// frame's bulk payload can leave without being copied into its header.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    tail: Option<Bytes>,
}

impl Writer {
    /// A writer with room for `n` bytes before the tail.
    pub fn with_capacity(n: usize) -> Self {
        Writer { buf: Vec::with_capacity(n), tail: None }
    }

    /// Appends one value of shape `S`.
    pub fn put<S: Shape>(&mut self, v: &S::Value) {
        S::put(v, self);
    }

    /// The bytes before the tail, and the tail.
    pub fn into_parts(self) -> (Vec<u8>, Option<Bytes>) {
        (self.buf, self.tail)
    }
}

/// How one field is laid out: a type-level name for its bytes. Most
/// types are their own shape; [`Usize32`], [`Tail`] and [`Rest`] name the
/// layouts a field's type alone does not pick.
pub trait Shape {
    /// The value a field of this shape holds.
    type Value;
    /// The fewest bytes one value takes: what a list's guard charges
    /// per entry.
    const MIN: usize;
    /// Appends `v`.
    fn put(v: &Self::Value, w: &mut Writer);
    /// Reads one value.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] for bytes that are not one.
    fn get(r: &mut Reader<'_>) -> Result<Self::Value, StoreError>;
}

/// A message of one plane: an enum declared by `wire!` whose variants
/// each travel as a code byte and a body.
pub trait Message: Sized {
    /// The variant's opcode (or journal tag).
    fn code(&self) -> u8;
    /// Appends the variant's fields.
    fn put_body(&self, w: &mut Writer);
    /// Reads the fields of the variant `code` names.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] for an unknown code or a malformed body.
    fn get_body(code: u8, r: &mut Reader<'_>) -> Result<Self, StoreError>;
}

/// Integers travel little-endian.
macro_rules! int_shapes {
    ($($int:ty),*) => {$(
        impl Shape for $int {
            type Value = $int;
            const MIN: usize = std::mem::size_of::<$int>();
            fn put(v: &$int, w: &mut Writer) {
                w.buf.extend_from_slice(&v.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<$int, StoreError> {
                Ok(<$int>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

int_shapes!(u8, u32, u64);

/// A `usize` carried as a `u32`: a server index in a wire placement
/// list (the journal carries those as `u64`, the plain `usize` shape).
#[derive(Debug)]
pub struct Usize32;

/// Shapes that travel as another: `$shape`'s value is converted to and
/// from the `$via` shape's.
macro_rules! via_shapes {
    ($($shape:ty: $value:ty as $via:ty, $put:expr, $get:expr;)*) => {$(
        impl Shape for $shape {
            type Value = $value;
            const MIN: usize = <$via as Shape>::MIN;
            fn put(v: &$value, w: &mut Writer) {
                w.put::<$via>(&$put(*v));
            }
            fn get(r: &mut Reader<'_>) -> Result<$value, StoreError> {
                Ok($get(r.get::<$via>()?))
            }
        }
    )*};
}

via_shapes! {
    bool: bool as u8, u8::from, |b: u8| b != 0;
    f64: f64 as u64, f64::to_bits, f64::from_bits;
    usize: usize as u64, |v: usize| v as u64, |v: u64| v as usize;
    Usize32: usize as u32, |v: usize| v as u32, |v: u32| v as usize;
}

impl Shape for String {
    type Value = String;
    const MIN: usize = 4;
    fn put(v: &String, w: &mut Writer) {
        w.put::<u32>(&(v.len() as u32));
        w.buf.extend_from_slice(v.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<String, StoreError> {
        let n = r.get::<u32>()? as usize;
        let raw = r.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| codec_error("invalid utf-8 in string field"))
    }
}

impl<S: Shape> Shape for Vec<S> {
    type Value = Vec<S::Value>;
    const MIN: usize = 4;
    fn put(v: &Vec<S::Value>, w: &mut Writer) {
        w.put::<u32>(&(v.len() as u32));
        for x in v {
            S::put(x, w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<S::Value>, StoreError> {
        let n = r.count(S::MIN.max(1))?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(S::get(r)?);
        }
        Ok(out)
    }
}

impl<S: Shape> Shape for Option<S> {
    type Value = Option<S::Value>;
    const MIN: usize = 1;
    fn put(v: &Option<S::Value>, w: &mut Writer) {
        w.put::<bool>(&v.is_some());
        if let Some(x) = v {
            S::put(x, w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Option<S::Value>, StoreError> {
        match r.get::<u8>()? {
            0 => Ok(None),
            1 => Ok(Some(S::get(r)?)),
            t => Err(codec_error(format!("bad option tag {t}"))),
        }
    }
}

impl<S: Shape> Shape for Box<S> {
    type Value = Box<S::Value>;
    const MIN: usize = S::MIN;
    fn put(v: &Box<S::Value>, w: &mut Writer) {
        S::put(v, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Box<S::Value>, StoreError> {
        S::get(r).map(Box::new)
    }
}

macro_rules! tuple_shapes {
    ($(($($s:ident $i:tt),+))*) => {$(
        impl<$($s: Shape),+> Shape for ($($s,)+) {
            type Value = ($($s::Value,)+);
            const MIN: usize = 0 $(+ $s::MIN)+;
            fn put(v: &Self::Value, w: &mut Writer) {
                $($s::put(&v.$i, w);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self::Value, StoreError> {
                Ok(($($s::get(r)?,)+))
            }
        }
    )*};
}

tuple_shapes!((A 0, B 1) (A 0, B 1, C 2));

/// The rest of a body as shared bytes: written apart from the bytes
/// before it (a frame's zero-copy payload), read as a view of the
/// receive buffer. Last in its row.
#[derive(Debug)]
pub struct Tail;

impl Shape for Tail {
    type Value = Bytes;
    const MIN: usize = 0;
    fn put(v: &Bytes, w: &mut Writer) {
        w.tail = Some(v.clone());
    }
    fn get(r: &mut Reader<'_>) -> Result<Bytes, StoreError> {
        let start = r.pos;
        let rest = r.rest();
        Ok(match r.shared {
            Some(buf) => buf.slice(start..buf.len()),
            None => Bytes::copy_from_slice(rest),
        })
    }
}

/// The rest of a body as an owned copy. Last in its row.
#[derive(Debug)]
pub struct Rest;

impl Shape for Rest {
    type Value = Vec<u8>;
    const MIN: usize = 0;
    fn put(v: &Vec<u8>, w: &mut Writer) {
        w.buf.extend_from_slice(v);
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<u8>, StoreError> {
        Ok(r.rest().to_vec())
    }
}

/// Declares message types once and derives their codec from the rows;
/// one invocation holds any number of types.
///
/// The struct form emits the struct and a [`Shape`] of its fields in
/// order. The enum form emits the enum and its [`Message`]: each
/// variant's row names its code and its fields, unit, one named tuple
/// field (`Flag(f: bool)`, declared `Flag(bool)`) or struct fields. A
/// field's type is its shape unless `as Shape` names another; a row
/// ending `=> path` decodes through that hand-written function instead
/// (its encoding stays the table's). `else` gives the message for an
/// unknown code, formatted with the code. A wire enum is also a
/// [`Shape`]: its code byte, then its body.
macro_rules! wire {
    (@shape $ty:ty) => { $ty };
    (@shape $ty:ty, $shape:ty) => { $shape };
    (@pick [$($hand:tt)+] $($table:tt)*) => { $($hand)+ };
    (@pick [] $($table:tt)*) => { $($table)* };
    () => {};
    (
        $(#[$m:meta])*
        $vis:vis struct $S:ident {
            $( $(#[$fm:meta])* $fvis:vis $f:ident : $F:ty $(as $FS:ty)? ),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$m])*
        $vis struct $S {
            $( $(#[$fm])* $fvis $f: $F, )*
        }

        impl $crate::codec::Shape for $S {
            type Value = Self;
            const MIN: usize = 0 $(+ <wire!(@shape $F $(, $FS)?) as $crate::codec::Shape>::MIN)*;
            fn put(v: &Self, w: &mut $crate::codec::Writer) {
                $( w.put::<wire!(@shape $F $(, $FS)?)>(&v.$f); )*
            }
            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::rpc::StoreError> {
                Ok($S { $( $f: r.get::<wire!(@shape $F $(, $FS)?)>()?, )* })
            }
        }

        wire! { $($rest)* }
    };
    (
        $(#[$m:meta])*
        $vis:vis enum $E:ident else $unknown:literal {
            $(
                $(#[$vm:meta])*
                $V:ident
                $( ( $t:ident : $T:ty $(as $TS:ty)? ) )?
                $( { $( $(#[$fm:meta])* $f:ident : $F:ty $(as $FS:ty)? ),* $(,)? } )?
                = $code:tt $(=> $hand:path)?
            ),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$m])*
        $vis enum $E {
            $(
                $(#[$vm])*
                $V $( ($T) )? $( { $( $(#[$fm])* $f: $F, )* } )?,
            )*
        }

        impl $crate::codec::Message for $E {
            fn code(&self) -> u8 {
                match self {
                    $( Self::$V { .. } => $code, )*
                }
            }

            // An enum of unit variants reads and writes no field.
            #[allow(unused_variables)]
            fn put_body(&self, w: &mut $crate::codec::Writer) {
                match self {
                    $(
                        Self::$V $( ($t) )? $( { $($f),* } )? => {
                            $( w.put::<wire!(@shape $T $(, $TS)?)>($t); )?
                            $( $( w.put::<wire!(@shape $F $(, $FS)?)>($f); )* )?
                        }
                    )*
                }
            }

            #[allow(unused_variables)]
            fn get_body(
                code: u8,
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::rpc::StoreError> {
                Ok(match code {
                    $(
                        $code => wire!(@pick [$($hand(r)?)?]
                            Self::$V
                            $( (r.get::<wire!(@shape $T $(, $TS)?)>()?) )?
                            $( { $( $f: r.get::<wire!(@shape $F $(, $FS)?)>()?, )* } )?
                        ),
                    )*
                    other => return Err($crate::codec::codec_error(format!($unknown, other))),
                })
            }
        }

        impl $crate::codec::Shape for $E {
            type Value = Self;
            const MIN: usize = 1;
            fn put(v: &Self, w: &mut $crate::codec::Writer) {
                w.put::<u8>(&$crate::codec::Message::code(v));
                $crate::codec::Message::put_body(v, w);
            }
            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::rpc::StoreError> {
                let code = r.get::<u8>()?;
                <Self as $crate::codec::Message>::get_body(code, r)
            }
        }

        wire! { $($rest)* }
    };
}
