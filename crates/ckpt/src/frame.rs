//! The framed container every on-disk format (`TGTS`, `TGTF`, `TGDS`,
//! `TGDM`) is an instance of.
//!
//! ```text
//! offset  size         field
//! 0       4            magic
//! 4       4            format version, u32 LE
//! 8       8            manifest length N, u64 LE
//! 16      4            CRC-32 of the manifest bytes, u32 LE
//! 20      N            manifest: compact JSON (torchgt-compat::json)
//! 20+N    payload_len  payload (absent when the manifest has no
//!                      `payload_len` key)
//! ```
//!
//! The frame reads three manifest keys — `format_version` (must equal the
//! header's), `payload_len` and `payload_crc` — and verifies magic, version
//! range, the manifest-length cap, both checksums and that the input ends
//! exactly at the payload's last byte. Everything else in the manifest, and
//! the layout of the payload, belongs to the format (DESIGN.md has the
//! per-format table). The payload a format sees is a subslice of the bytes
//! it was given: a declared length is compared with the bytes actually
//! present, never allocated from.
//!
//! Beside the codec live the two file disciplines the formats share:
//! [`publish`] (write-then-rename) and [`read_healing`] (transient retries
//! with seeded backoff, then one re-read on corruption).

use crate::checksum::{crc32, crc32_combine};
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use torchgt_compat::json::{self, FromJson, ToJson};
use torchgt_obs::RecorderHandle;

const HEADER_LEN: usize = 20;

/// Hard cap on the declared manifest length — a corrupted length field must
/// not be believed, even when that many bytes follow.
const MAX_MANIFEST_LEN: u64 = 64 << 20;

/// Transient-read retry budget per healing read (beyond the first attempt).
const MAX_TRANSIENT_RETRIES: usize = 4;
/// Backoff base for read retries, seconds (first retry waits
/// ~`[0.5, 1.5) × base`, doubling per attempt — the elastic recovery
/// ladder's formula via [`torchgt_faults::backoff_s`]).
const READ_BACKOFF_BASE_S: f64 = 0.002;

/// An `InvalidData` error — the corruption class of
/// [`torchgt_faults::is_corruption`].
pub fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn truncated(name: &str, part: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("truncated {name} {part}"),
    )
}

torchgt_compat::json_struct! {
    /// The manifest keys the frame itself interprets.
    struct FrameKeys {
        format_version: u32,
        payload_len: Option<u64>,
        payload_crc: Option<u32>,
    }
}

/// One format's identity: what distinguishes its frames from the others'.
#[derive(Debug)]
pub struct Format {
    /// The four magic bytes.
    pub magic: [u8; 4],
    /// Noun for error messages ("snapshot", "shard", …).
    pub name: &'static str,
    /// Accepted versions, oldest to newest; the writer emits the newest.
    pub versions: RangeInclusive<u32>,
}

impl Format {
    /// Write one frame: header, checksummed `manifest`, `payload`. The
    /// manifest carries its own `format_version` / `payload_len` /
    /// `payload_crc` keys (key order is part of each format's bytes).
    ///
    /// Returns the CRC-32 of every byte written, without a second pass over
    /// the payload: the caller hashed it once for `payload_crc`, and that
    /// value is combined with the header's and the manifest's.
    pub fn write<W: Write>(
        &self,
        w: &mut W,
        manifest: &impl ToJson,
        payload: &[u8],
    ) -> io::Result<u32> {
        let encode_err = |e| bad(format!("{} manifest encode: {e}", self.name));
        let manifest = manifest.to_json();
        let keys = FrameKeys::from_json(&manifest).map_err(encode_err)?;
        let manifest = json::to_string(&manifest).map_err(encode_err)?.into_bytes();
        let manifest_crc = crc32(&manifest);
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&self.magic);
        header[4..8].copy_from_slice(&self.versions.end().to_le_bytes());
        header[8..16].copy_from_slice(&(manifest.len() as u64).to_le_bytes());
        header[16..].copy_from_slice(&manifest_crc.to_le_bytes());
        w.write_all(&header)?;
        w.write_all(&manifest)?;
        w.write_all(payload)?;
        Ok(tiled_crc(
            &header,
            (manifest_crc, manifest.len()),
            (keys.payload_crc.unwrap_or(0), payload.len()),
        ))
    }

    /// Verify one frame and split it into its decoded manifest and its
    /// payload (borrowed from `bytes`). Short input is `UnexpectedEof`,
    /// every other failure `InvalidData`.
    pub fn parse<'a, M: FromJson>(&self, bytes: &'a [u8]) -> io::Result<(M, &'a [u8])> {
        self.parse_hashed(bytes)
            .map(|(manifest, payload, _)| (manifest, payload))
    }

    /// [`Format::parse`], also returning the CRC-32 of all of `bytes` —
    /// combined from the manifest and payload checksums the verification
    /// computed anyway, so a reader that must also match a whole-file
    /// checksum (a `TGDM` shard entry's) still hashes each byte once.
    pub fn parse_hashed<'a, M: FromJson>(&self, bytes: &'a [u8]) -> io::Result<(M, &'a [u8], u32)> {
        let name = self.name;
        if bytes.len() < HEADER_LEN {
            return Err(truncated(name, "header"));
        }
        let (header, body) = bytes.split_at(HEADER_LEN);
        if header[..4] != self.magic {
            return Err(bad(format!("bad {name} magic")));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if !self.versions.contains(&version) {
            return Err(bad(format!(
                "unsupported {name} format version {version} (expected {}..={})",
                self.versions.start(),
                self.versions.end()
            )));
        }
        let manifest_len = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        if manifest_len > MAX_MANIFEST_LEN {
            return Err(bad(format!(
                "implausible {name} manifest length {manifest_len}"
            )));
        }
        if manifest_len > body.len() as u64 {
            return Err(truncated(name, "manifest"));
        }
        let (manifest, payload) = body.split_at(manifest_len as usize);
        let manifest_crc = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
        if crc32(manifest) != manifest_crc {
            return Err(bad(format!(
                "{name} manifest checksum mismatch (corrupt {name})"
            )));
        }
        let manifest_len = manifest.len();
        let manifest = std::str::from_utf8(manifest)
            .map_err(|_| bad(format!("{name} manifest is not valid UTF-8")))?;
        let decode_err = |e| bad(format!("{name} manifest decode: {e}"));
        let manifest = json::from_str(manifest).map_err(decode_err)?;
        let keys = FrameKeys::from_json(&manifest).map_err(decode_err)?;
        if keys.format_version != version {
            return Err(bad(format!("{name} manifest/header version disagreement")));
        }
        if keys.payload_len.is_some() != keys.payload_crc.is_some() {
            return Err(bad(format!("{name} manifest declares half a payload")));
        }
        let declared = keys.payload_len.unwrap_or(0);
        if (payload.len() as u64) < declared {
            return Err(truncated(name, "payload"));
        }
        if payload.len() as u64 > declared {
            return Err(bad(format!("trailing bytes after {name} payload")));
        }
        if keys.payload_crc.is_some_and(|crc| crc32(payload) != crc) {
            return Err(bad(format!(
                "{name} payload checksum mismatch (corrupt {name})"
            )));
        }
        let whole = tiled_crc(
            header,
            (manifest_crc, manifest_len),
            (keys.payload_crc.unwrap_or(0), payload.len()),
        );
        Ok((M::from_json(&manifest).map_err(decode_err)?, payload, whole))
    }
}

/// CRC-32 of a whole frame from the three ranges that tile it: the header
/// (hashed here, twenty bytes) and the `(checksum, length)` of the manifest
/// and of the payload (an absent payload is `(0, 0)`, the empty string's).
fn tiled_crc(header: &[u8], manifest: (u32, usize), payload: (u32, usize)) -> u32 {
    let crc = crc32_combine(crc32(header), manifest.0, manifest.1 as u64);
    crc32_combine(crc, payload.0, payload.1 as u64)
}

fn put_words(out: &mut Vec<u8>, words: impl ExactSizeIterator<Item = [u8; 4]>) {
    out.reserve(words.len() * 4);
    for word in words {
        out.extend_from_slice(&word);
    }
}

/// Append `data` to a payload as packed little-endian words.
pub fn put_f32s(out: &mut Vec<u8>, data: &[f32]) {
    put_words(out, data.iter().map(|v| v.to_le_bytes()));
}

/// Append `data` to a payload as packed little-endian words.
pub fn put_u32s(out: &mut Vec<u8>, data: &[u32]) {
    put_words(out, data.iter().map(|v| v.to_le_bytes()));
}

/// Split the next `n` bytes off a payload cursor. `n` comes from a manifest,
/// so it is checked against what is there before anything is sized by it.
pub fn take<'a>(cursor: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
    if n > cursor.len() {
        return Err(bad(format!(
            "manifest shapes need {n} more payload bytes, {} remain",
            cursor.len()
        )));
    }
    let (head, tail) = cursor.split_at(n);
    *cursor = tail;
    Ok(head)
}

/// Split the next `n` packed little-endian words off a payload cursor, for
/// a reader that decodes them into a buffer of its own.
pub fn take_words<'a>(
    cursor: &mut &'a [u8],
    n: usize,
) -> io::Result<impl ExactSizeIterator<Item = [u8; 4]> + 'a> {
    let bytes = n
        .checked_mul(4)
        .ok_or_else(|| bad("manifest shape overflows"))?;
    Ok(take(cursor, bytes)?
        .chunks_exact(4)
        .map(|c| [c[0], c[1], c[2], c[3]]))
}

/// Read `n` packed little-endian f32s off a payload cursor.
pub fn get_f32s(cursor: &mut &[u8], n: usize) -> io::Result<Vec<f32>> {
    Ok(take_words(cursor, n)?.map(f32::from_le_bytes).collect())
}

/// The manifest's shapes must account for every payload byte.
pub fn finish(cursor: &[u8]) -> io::Result<()> {
    if cursor.is_empty() {
        Ok(())
    } else {
        Err(bad(format!(
            "{} payload bytes beyond the manifest's shapes",
            cursor.len()
        )))
    }
}

/// Publish a file atomically: `write` fills a `.tmp` sibling in the same
/// directory, which is flushed and then renamed over `path`, so a crash
/// mid-write never leaves a torn file under a name a reader would pick up.
/// `fsync` additionally forces the bytes to disk before the rename — 0.1–1 s
/// on a shared disk, paid only where losing the file loses training progress.
pub fn publish(
    path: &Path,
    fsync: bool,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut w = BufWriter::new(File::create(&tmp)?);
    write(&mut w)?;
    let file = w.into_inner().map_err(|e| e.into_error())?;
    if fsync {
        file.sync_all()?;
    }
    drop(file);
    fs::rename(&tmp, path)
}

/// Run `attempt` (one read of `path` plus its verification) under the
/// self-healing ladder:
///
/// * a **transient** error (interrupted/timed-out read) is retried up to
///   [`MAX_TRANSIENT_RETRIES`] times with seeded jittered backoff — each
///   retry draws a fresh fault decision, so injected transients heal;
/// * a **corruption** (size/CRC/parse mismatch) triggers exactly one
///   re-read, with no backoff — corruption does not clear with time, only
///   with a fresh pass over the bytes. A torn or bit-flipped in-memory
///   buffer heals because the file on disk was never touched, while genuine
///   on-disk corruption fails again;
/// * anything else, or anything still failing, is returned.
///
/// Every retry bumps `retries`, and emits an `IO_RETRY` event and an
/// `io_retries` count on `recorder`.
pub fn read_healing<T>(
    path: &Path,
    recorder: &RecorderHandle,
    retries: &mut u64,
    mut attempt: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let seed = torchgt_faults::installed().map(|s| s.seed).unwrap_or(0);
    let backoff_seed = seed ^ torchgt_faults::path_key(path);
    let mut transient_attempts = 0usize;
    let mut reread_used = false;
    loop {
        let (e, attempt_no, wait) = match attempt() {
            Ok(value) => return Ok(value),
            Err(e)
                if torchgt_faults::is_transient(&e)
                    && transient_attempts < MAX_TRANSIENT_RETRIES =>
            {
                transient_attempts += 1;
                let wait = torchgt_faults::backoff_s(
                    backoff_seed,
                    READ_BACKOFF_BASE_S,
                    transient_attempts,
                );
                (e, transient_attempts, wait)
            }
            Err(e) if torchgt_faults::is_corruption(&e) && !reread_used => {
                reread_used = true;
                (e, transient_attempts + 1, 0.0)
            }
            Err(e) => return Err(e),
        };
        *retries += 1;
        if recorder.enabled() {
            recorder.event(torchgt_obs::Event::io_retry(
                &path.display().to_string(),
                attempt_no,
                wait,
                &e.to_string(),
            ));
            recorder.counter_add("io_retries", 1);
        }
        if wait > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(wait));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_compat::json::Value;

    const FORMAT: Format = Format {
        magic: *b"TEST",
        name: "test frame",
        versions: 1..=2,
    };

    fn frame(manifest: Value, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        FORMAT.write(&mut out, &manifest, payload).unwrap();
        out
    }

    fn manifest_for(payload: &[u8]) -> Value {
        torchgt_compat::json!({
            "format_version": 2u32,
            "payload_len": payload.len(),
            "payload_crc": crc32(payload),
        })
    }

    #[test]
    fn round_trip_borrows_the_payload() {
        let bytes = frame(manifest_for(b"abcdefgh"), b"abcdefgh");
        let (manifest, payload): (Value, _) = FORMAT.parse(&bytes).unwrap();
        assert_eq!(manifest.get("payload_len").unwrap().as_u64(), Some(8));
        assert_eq!(payload, b"abcdefgh");
        assert!(std::ptr::eq(
            payload.as_ptr(),
            bytes[bytes.len() - 8..].as_ptr()
        ));
    }

    #[test]
    fn write_and_parse_report_the_checksum_of_the_whole_frame() {
        for payload in [&b""[..], b"x", &[0xA5; 300]] {
            let mut bytes = Vec::new();
            let manifest = if payload.is_empty() {
                torchgt_compat::json!({ "format_version": 2u32 })
            } else {
                manifest_for(payload)
            };
            let written = FORMAT.write(&mut bytes, &manifest, payload).unwrap();
            assert_eq!(written, crc32(&bytes), "{} payload bytes", payload.len());
            let (_, _, parsed): (Value, _, _) = FORMAT.parse_hashed(&bytes).unwrap();
            assert_eq!(parsed, written);
        }
    }

    #[test]
    fn payload_free_frames_end_at_the_manifest() {
        let bytes = frame(torchgt_compat::json!({ "format_version": 2u32 }), b"");
        let (_, payload): (Value, _) = FORMAT.parse(&bytes).unwrap();
        assert!(payload.is_empty());
        let mut long = bytes.clone();
        long.push(0);
        let err = FORMAT.parse::<Value>(&long).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A length without a checksum is not a payload declaration.
        let half = frame(
            torchgt_compat::json!({ "format_version": 2u32, "payload_len": 1u64 }),
            b"x",
        );
        assert!(FORMAT.parse::<Value>(&half).is_err());
    }

    #[test]
    fn every_truncation_is_unexpected_eof_and_every_flip_is_an_error() {
        let bytes = frame(manifest_for(b"payload!"), b"payload!");
        for len in 0..bytes.len() {
            let err = FORMAT.parse::<Value>(&bytes[..len]).unwrap_err();
            assert!(torchgt_faults::is_corruption(&err), "cut at {len}: {err}");
        }
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                FORMAT.parse::<Value>(&corrupt).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn declared_lengths_are_compared_with_the_input_not_allocated() {
        // A manifest length just under the cap and a payload length of
        // 2^60, both far beyond the bytes present: typed errors.
        let mut bytes = frame(manifest_for(b""), b"");
        bytes[8..16].copy_from_slice(&(MAX_MANIFEST_LEN - 1).to_le_bytes());
        let err = FORMAT.parse::<Value>(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let huge = torchgt_compat::json!({
            "format_version": 2u32, "payload_len": 1u64 << 60, "payload_crc": 0u32,
        });
        let err = FORMAT.parse::<Value>(&frame(huge, b"tiny")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut cursor: &[u8] = b"12345678";
        assert!(get_f32s(&mut cursor, usize::MAX / 2).is_err());
        assert!(take_words(&mut cursor, 3).is_err());
        assert_eq!(take_words(&mut cursor, 2).unwrap().len(), 2);
        finish(cursor).unwrap();
    }

    #[test]
    fn version_range_and_header_agreement() {
        let old = Format {
            versions: 1..=1,
            ..FORMAT
        };
        let v1 = {
            let mut out = Vec::new();
            old.write(
                &mut out,
                &torchgt_compat::json!({ "format_version": 1u32 }),
                b"",
            )
            .unwrap();
            out
        };
        assert!(
            FORMAT.parse::<Value>(&v1).is_ok(),
            "older revision stays readable"
        );
        let mut future = v1.clone();
        future[4] = 3;
        let err = FORMAT.parse::<Value>(&future).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let mut disagree = v1;
        disagree[4] = 2; // header says 2, manifest says 1
        assert!(FORMAT.parse::<Value>(&disagree).is_err());
    }

    #[test]
    fn healing_ladder_retries_transients_and_rereads_corruption_once() {
        let path = Path::new("/nonexistent/healing");
        let noop = torchgt_obs::noop();
        let transient = || io::Error::new(io::ErrorKind::Interrupted, "again");
        // A corruption and two transients all heal, each costing one retry.
        let mut script = vec![Err(bad("flip")), Err(transient()), Err(transient()), Ok(7)];
        script.reverse();
        let mut retries = 0;
        let got = read_healing(path, &noop, &mut retries, || script.pop().unwrap()).unwrap();
        assert_eq!((got, retries), (7, 3));
        // A second corruption is final.
        let mut calls = 0;
        let err = read_healing(path, &noop, &mut 0, || -> io::Result<()> {
            calls += 1;
            Err(bad("on-disk corruption"))
        })
        .unwrap_err();
        assert_eq!((calls, err.kind()), (2, io::ErrorKind::InvalidData));
        // The transient budget is the first try plus MAX_TRANSIENT_RETRIES.
        let mut calls = 0;
        let result = read_healing(path, &noop, &mut 0, || -> io::Result<()> {
            calls += 1;
            Err(transient())
        });
        assert!(result.is_err());
        assert_eq!(calls, 1 + MAX_TRANSIENT_RETRIES);
        // Anything else (e.g. a missing file) is not retried.
        let mut calls = 0;
        let result = read_healing(path, &noop, &mut 0, || -> io::Result<()> {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::NotFound, "gone"))
        });
        assert!(result.is_err());
        assert_eq!(calls, 1);
    }
}
