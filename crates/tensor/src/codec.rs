//! The bounded binary codec and the durable-file pair behind the three
//! binary formats: CCQCKPT (network checkpoint, `ccq-nn`), CCQRUNS
//! (in-flight run state, `ccq`) and CCQPACK (packed deployable artifact,
//! `ccq-infer`).
//!
//! Every format is little-endian: `u32` counts, ranks, dims and indices,
//! then the values. A [`Reader`] walks such a buffer and refuses any
//! count whose payload exceeds the bytes that remain, so a crafted header
//! can make a decoder fail but cannot make it allocate more than a small
//! multiple of the input's own size. [`Encode`] and [`Decode`] give each wire type one
//! encoding, and [`wire_enum!`](crate::wire_enum) declares a tagged enum
//! once for both its writer and its reader.
//!
//! [`write_atomic`] and [`load_with_fallback`] are the one durable-file
//! pair: tmp file, fsync, optional rotation of the current generation to
//! `<path>.prev`, rename, parent-directory fsync; and a load that falls
//! back to `<path>.prev` when the current generation does not decode.

use crate::Tensor;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Highest tensor rank a decoder accepts.
const MAX_RANK: usize = 8;
/// Largest tensor element count a decoder accepts.
const MAX_NUMEL: usize = 1 << 28;
/// Longest string (label, architecture) a decoder accepts, in bytes.
const MAX_STRING: usize = 1 << 16;

/// Why a buffer does not decode.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The input ends before the value does (names the format's noun).
    Truncated(&'static str),
    /// A field lies outside what the format allows.
    Implausible(&'static str),
    /// Any other malformed content.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated(noun) => write!(f, "truncated {noun}"),
            CodecError::Implausible(what) => write!(f, "implausible {what}"),
            CodecError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result of a decode step.
pub type Decoded<T> = std::result::Result<T, CodecError>;

/// Element count of a shape; `None` when it overflows `usize`.
pub fn numel(dims: &[usize]) -> Option<usize> {
    dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

/// A bounded cursor over an encoded buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    noun: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`; `noun` names the format in truncation errors
    /// ("truncated checkpoint").
    pub fn new(buf: &'a [u8], noun: &'static str) -> Self {
        Self { buf, noun }
    }

    /// Checks the 7-byte magic and the version byte; returns the version.
    ///
    /// # Errors
    ///
    /// A bad magic, or a version outside `versions`.
    pub fn header(
        &mut self,
        magic: &[u8; 7],
        versions: std::ops::RangeInclusive<u8>,
    ) -> Decoded<u8> {
        if self.bytes(7)? != magic {
            return Err(CodecError::Invalid(format!(
                "not a CCQ {} (bad magic)",
                self.noun
            )));
        }
        let version = self.u8()?;
        if !versions.contains(&version) {
            let reads = if versions.start() == versions.end() {
                format!("version {}", versions.start())
            } else {
                format!("versions {}..={}", versions.start(), versions.end())
            };
            return Err(CodecError::Invalid(format!(
                "unsupported {} version {version} (this build reads {reads})",
                self.noun
            )));
        }
        Ok(version)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `n` remain.
    pub fn bytes(&mut self, n: usize) -> Decoded<&'a [u8]> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated(self.noun));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Decoded<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    /// One byte, or [`CodecError::Truncated`] at the end of the input.
    pub fn u8(&mut self) -> Decoded<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`, or [`CodecError::Truncated`] at the end of the input.
    pub fn u32(&mut self) -> Decoded<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`, or [`CodecError::Truncated`] at the end of the input.
    pub fn u64(&mut self) -> Decoded<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `f32`, or [`CodecError::Truncated`] at the end of the input.
    pub fn f32(&mut self) -> Decoded<f32> {
        self.array().map(f32::from_le_bytes)
    }

    /// A little-endian `f64`, or [`CodecError::Truncated`] at the end of the input.
    pub fn f64(&mut self) -> Decoded<f64> {
        self.array().map(f64::from_le_bytes)
    }

    /// A `u32` element count whose elements take at least `elem_bytes`
    /// each. Every length field goes through here before anything is
    /// allocated for it.
    ///
    /// # Errors
    ///
    /// [`CodecError::Implausible`] naming `what` when the count exceeds
    /// `max`, and [`CodecError::Truncated`] when `count * elem_bytes`
    /// exceeds the bytes that remain.
    pub fn count(&mut self, what: &'static str, max: usize, elem_bytes: usize) -> Decoded<usize> {
        let n = self.u32()? as usize;
        if n > max {
            return Err(CodecError::Implausible(what));
        }
        if n.saturating_mul(elem_bytes) > self.buf.len() {
            return Err(CodecError::Truncated(self.noun));
        }
        Ok(n)
    }

    /// A `u32`-length-prefixed byte run (written by [`put_blob`]).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the run is cut short.
    pub fn blob(&mut self) -> Decoded<&'a [u8]> {
        let n = self.u32()? as usize;
        self.bytes(n)
    }

    /// A tensor shape: rank, then the dims. Returns the dims with their
    /// element count, computed with `checked_mul`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Implausible`] for a rank above 8 or an element
    /// count that overflows or exceeds 2²⁸.
    pub fn shape(&mut self) -> Decoded<(Vec<usize>, usize)> {
        let rank = self.count("tensor rank", MAX_RANK, 4)?;
        let dims = (0..rank)
            .map(|_| self.u32().map(|d| d as usize))
            .collect::<Decoded<Vec<_>>>()?;
        let numel = numel(&dims)
            .filter(|&n| n <= MAX_NUMEL)
            .ok_or(CodecError::Implausible("tensor size"))?;
        Ok((dims, numel))
    }

    /// A shape followed by its `f32` data.
    ///
    /// # Errors
    ///
    /// As [`Reader::shape`], or [`CodecError::Truncated`] when the data
    /// is cut short.
    pub fn tensor(&mut self) -> Decoded<Tensor> {
        let (dims, numel) = self.shape()?;
        let raw = self.bytes(numel * 4)?;
        let data = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Tensor::from_vec(data, &dims).map_err(|e| CodecError::Invalid(e.to_string()))
    }
}

/// Appends `bytes` with a `u32` length prefix (read by [`Reader::blob`]).
pub fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    (bytes.len() as u32).encode(out);
    out.extend_from_slice(bytes);
}

/// A value with one wire encoding.
pub trait Encode {
    /// Appends the encoding of `self`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A value that decodes from its [`Encode`] form.
pub trait Decode: Sized {
    /// The fewest bytes one encoded value takes; bounds list counts.
    const MIN_BYTES: usize;

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// [`CodecError`] when the input does not hold a valid value.
    fn decode(r: &mut Reader<'_>) -> Decoded<Self>;
}

macro_rules! le_scalars {
    ($($t:ident),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }

        impl Decode for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
                r.$t()
            }
        }
    )*};
}

le_scalars!(u8, u32, u64, f32, f64);

/// Indices, dims and counts travel as `u32`.
impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u32).encode(out);
    }
}

impl Decode for usize {
    const MIN_BYTES: usize = 4;

    fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        Ok(r.u32()? as usize)
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        put_blob(out, self.as_bytes());
    }
}

impl Decode for String {
    const MIN_BYTES: usize = 4;

    fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        let n = r.count("string length", MAX_STRING, 1)?;
        String::from_utf8(r.bytes(n)?.to_vec())
            .map_err(|_| CodecError::Invalid("string is not UTF-8".into()))
    }
}

/// A list: its `u32` length, then each element.
impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for x in self {
            x.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_BYTES: usize = 4;

    fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        let n = r.count("list length", usize::MAX, T::MIN_BYTES)?;
        (0..n).map(|_| T::decode(r)).collect()
    }
}

/// An optional value: tag byte 0, or tag byte 1 and the value.
impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                x.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    const MIN_BYTES: usize = 1;

    fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => T::decode(r).map(Some),
            other => Err(CodecError::Invalid(format!("bad option tag {other}"))),
        }
    }
}

/// A tensor: rank, dims, then the `f32` data.
impl Encode for Tensor {
    fn encode(&self, out: &mut Vec<u8>) {
        self.shape().encode(out);
        out.reserve(self.len() * 4);
        for v in self.as_slice() {
            v.encode(out);
        }
    }
}

impl Decode for Tensor {
    const MIN_BYTES: usize = 4;

    fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        r.tensor()
    }
}

/// Declares a tagged enum's wire form once: one row per variant with its
/// tag byte and its fields in wire order, `{ a, b }` for a struct
/// variant (`{}` for a unit one) and `(a)` for a tuple variant. Both
/// [`Encode`] and [`Decode`] are generated from the rows, so a tag is
/// written and matched from one place.
///
/// ```
/// use ccq_tensor::codec::{Decode, Encode, Reader};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape { Dot {}, Line { len: u32 }, Tagged(u8) }
/// ccq_tensor::wire_enum! { Shape "shape" {
///     Dot = 0 {}
///     Line = 1 { len }
///     Tagged = 2 (tag)
/// } }
///
/// let mut out = Vec::new();
/// Shape::Line { len: 7 }.encode(&mut out);
/// assert_eq!(out, [1, 7, 0, 0, 0]);
/// assert_eq!(Shape::decode(&mut Reader::new(&out, "shape")), Ok(Shape::Line { len: 7 }));
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident $what:literal { $($var:ident = $tag:literal $fields:tt)* }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($crate::wire_enum!(@pat $ty $var $fields) => {
                        out.push($tag);
                        $crate::wire_enum!(@put out $fields);
                    })*
                }
            }
        }

        impl $crate::codec::Decode for $ty {
            const MIN_BYTES: usize = 1;

            fn decode(r: &mut $crate::codec::Reader<'_>) -> $crate::codec::Decoded<Self> {
                match r.u8()? {
                    $($tag => Ok($crate::wire_enum!(@new r $ty $var $fields)),)*
                    other => Err($crate::codec::CodecError::Invalid(format!(
                        "bad {} tag {other}",
                        $what
                    ))),
                }
            }
        }
    };
    (@pat $ty:ident $var:ident { $($f:ident),* }) => { $ty::$var { $($f),* } };
    (@pat $ty:ident $var:ident ( $($f:ident),* )) => { $ty::$var ( $($f),* ) };
    (@put $out:ident { $($f:ident),* }) => { $($crate::codec::Encode::encode($f, $out);)* };
    (@put $out:ident ( $($f:ident),* )) => { $($crate::codec::Encode::encode($f, $out);)* };
    (@new $r:ident $ty:ident $var:ident { $($f:ident),* }) => {
        $ty::$var { $($f: $crate::codec::Decode::decode($r)?),* }
    };
    (@new $r:ident $ty:ident $var:ident ( $($f:ident),* )) => {
        $ty::$var ( $({
            let $f = $crate::codec::Decode::decode($r)?;
            $f
        }),* )
    };
}

/// A failed step of a durable write or read, with the path it acted on.
#[derive(Debug)]
pub struct FileError {
    /// The step that failed ("rename into", "read", …).
    pub step: &'static str,
    /// The file the step acted on.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.step, self.path.display(), self.source)
    }
}

impl std::error::Error for FileError {}

/// `<path>.prev`, the generation [`write_atomic`] keeps on request.
pub fn prev_path(path: &Path) -> PathBuf {
    with_suffix(path, ".prev")
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

/// Writes `bytes` to `path` so that a crash leaves either the old or the
/// new contents: the bytes go to `<path>.tmp` and are fsynced; with
/// `keep_prev`, an existing `path` is first renamed to `<path>.prev`;
/// the tmp file is renamed into place; then the parent directory is
/// fsynced so the renames survive power loss. A directory that cannot
/// be opened is skipped, since some filesystems refuse that.
///
/// `fail_dir_sync` is a fault hook: the directory fsync
/// reports a failure after the rename has landed, as a real one would.
///
/// # Errors
///
/// [`FileError`] naming the failed step. After a failed directory fsync
/// the new file is in place but not yet durable; callers retry the
/// whole write.
pub fn write_atomic(
    path: &Path,
    bytes: &[u8],
    keep_prev: bool,
    fail_dir_sync: bool,
) -> Result<(), FileError> {
    let fail = |step, source| FileError {
        step,
        path: path.to_path_buf(),
        source,
    };
    let tmp = with_suffix(path, ".tmp");
    let mut f = File::create(&tmp).map_err(|e| fail("create tmp for", e))?;
    f.write_all(bytes).map_err(|e| fail("write tmp for", e))?;
    f.sync_all().map_err(|e| fail("fsync tmp for", e))?;
    drop(f);
    if keep_prev && path.exists() {
        fs::rename(path, prev_path(path)).map_err(|e| fail("rotate previous for", e))?;
    }
    fs::rename(&tmp, path).map_err(|e| fail("rename into", e))?;
    if fail_dir_sync {
        return Err(fail(
            "fsync parent dir of",
            io::Error::other("injected failure"),
        ));
    }
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            d.sync_all().map_err(|e| fail("fsync parent dir of", e))?;
        }
    }
    Ok(())
}

/// Reads the whole file at `path`.
///
/// # Errors
///
/// [`FileError`] when the read fails.
pub fn read(path: &Path) -> Result<Vec<u8>, FileError> {
    fs::read(path).map_err(|source| FileError {
        step: "read",
        path: path.to_path_buf(),
        source,
    })
}

/// Reads and decodes `path`, falling back to `<path>.prev` when the
/// current generation is missing, unreadable or does not decode.
///
/// `corrupt_current` is a fault hook: it flips one mid-file
/// byte of the current generation in memory before decoding, as bit rot
/// on disk would.
///
/// # Errors
///
/// The current generation's error when neither generation loads.
pub fn load_with_fallback<T, E: From<FileError>>(
    path: &Path,
    corrupt_current: bool,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) -> Result<T, E> {
    let load = |p: &Path, corrupt: bool| {
        let mut bytes = read(p)?;
        if corrupt && !bytes.is_empty() {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xA5;
        }
        decode(&bytes)
    };
    load(path, corrupt_current)
        .or_else(|current| load(&prev_path(path), false).map_err(|_| current))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_beyond_the_input_are_refused_before_allocating() {
        // A count of 2^24 four-byte elements in a 4-byte buffer.
        let bytes = (1u32 << 24).to_le_bytes();
        let mut r = Reader::new(&bytes, "buffer");
        assert_eq!(
            r.count("list", usize::MAX, 4),
            Err(CodecError::Truncated("buffer"))
        );
        let mut r = Reader::new(&bytes, "buffer");
        assert_eq!(
            Vec::<f32>::decode(&mut r),
            Err(CodecError::Truncated("buffer"))
        );
        let mut r = Reader::new(&bytes, "buffer");
        assert_eq!(r.count("list", 16, 0), Err(CodecError::Implausible("list")));
    }

    #[test]
    fn shapes_refuse_overflowing_and_oversized_products() {
        for dims in [&[65536u32; 4][..], &[u32::MAX; 8], &[16384, 16384, 2]] {
            let mut out = Vec::new();
            dims.len().encode(&mut out);
            for d in dims {
                d.encode(&mut out);
            }
            let err = Reader::new(&out, "buffer").shape().unwrap_err();
            assert_eq!(err, CodecError::Implausible("tensor size"), "{dims:?}");
        }
        let mut out = Vec::new();
        [0usize; 9].encode(&mut out);
        let err = Reader::new(&out, "buffer").shape().unwrap_err();
        assert_eq!(err, CodecError::Implausible("tensor rank"));
    }

    #[test]
    fn values_round_trip() {
        let t = Tensor::from_vec(vec![1.5, -0.0, f32::INFINITY], &[3, 1]).unwrap();
        let label = "fc→1".to_string();
        let list = vec![Some(7u64), None];
        let mut out = Vec::new();
        t.encode(&mut out);
        label.encode(&mut out);
        list.encode(&mut out);
        put_blob(&mut out, b"raw");
        let mut r = Reader::new(&out, "buffer");
        assert_eq!(Tensor::decode(&mut r).unwrap(), t);
        assert_eq!(String::decode(&mut r).unwrap(), label);
        assert_eq!(Vec::<Option<u64>>::decode(&mut r).unwrap(), list);
        assert_eq!(r.blob().unwrap(), b"raw");
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err());
    }

    #[test]
    fn header_names_the_version_it_reads() {
        let mut r = Reader::new(b"CCQTEST\x09", "test file");
        let err = r.header(b"CCQTEST", 1..=2).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported test file version 9 (this build reads versions 1..=2)"
        );
        let err = Reader::new(b"NOTATEST", "test file")
            .header(b"CCQTEST", 1..=1)
            .unwrap_err();
        assert_eq!(err.to_string(), "not a CCQ test file (bad magic)");
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ccq_codec_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(name);
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(prev_path(&path));
        path
    }

    fn decode_text(bytes: &[u8]) -> Result<String, String> {
        match std::str::from_utf8(bytes) {
            Ok(s) if s.starts_with("gen") => Ok(s.to_string()),
            _ => Err("not a generation".to_string()),
        }
    }

    impl From<FileError> for String {
        fn from(e: FileError) -> String {
            e.to_string()
        }
    }

    #[test]
    fn durable_pair_rotates_falls_back_and_injects_faults() {
        let path = scratch("state.bin");
        write_atomic(&path, b"gen 1", true, false).unwrap();
        write_atomic(&path, b"gen 2", true, false).unwrap();
        assert!(!with_suffix(&path, ".tmp").exists());
        assert_eq!(fs::read(prev_path(&path)).unwrap(), b"gen 1");
        assert_eq!(
            load_with_fallback(&path, false, decode_text).unwrap(),
            "gen 2"
        );

        // A corrupted read of the current generation falls back to the
        // previous one, as does a torn current file.
        assert_eq!(
            load_with_fallback(&path, true, decode_text).unwrap(),
            "gen 1"
        );
        fs::write(&path, b"torn").unwrap();
        assert_eq!(
            load_with_fallback(&path, false, decode_text).unwrap(),
            "gen 1"
        );

        // With neither generation readable, the current one's error wins.
        fs::remove_file(prev_path(&path)).unwrap();
        let err = load_with_fallback(&path, false, decode_text).unwrap_err();
        assert_eq!(err, "not a generation");
        fs::remove_file(&path).unwrap();
        let err = load_with_fallback(&path, false, decode_text).unwrap_err();
        assert!(err.starts_with("read "), "{err}");

        // An injected directory-fsync failure reports after the rename
        // lands; without rotation no `.prev` appears.
        let err = write_atomic(&path, b"gen 3", false, true).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(fs::read(&path).unwrap(), b"gen 3");
        assert!(!prev_path(&path).exists());
        write_atomic(&path, b"gen 4", false, false).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"gen 4");
        let _ = fs::remove_file(&path);
    }
}
