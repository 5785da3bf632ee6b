//! Persistence: dumping the simulated disk to a real file and loading it
//! back, so indexes built in one process can be reopened in another.
//!
//! Current file layout (little endian):
//!
//! ```text
//! magic    8 bytes  "SDJPAGE2"
//! page_sz  u64
//! pages    u64      total page slots (live + freed)
//! per slot: present u8, then crc32 u32 + page bytes if present
//! ```
//!
//! Any other magic — including the retired, un-checksummed `SDJPAGE1` — is a
//! [`PersistError::Format`]: every page that loads has had its checksum
//! verified.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::crc32;
use crate::{PageId, Pager, StorageError};

const MAGIC: &[u8; 8] = b"SDJPAGE2";

/// I/O or format error while persisting a pager.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file is not a pager dump or is structurally invalid.
    Format(&'static str),
    /// A storage-layer error during reconstruction.
    Storage(StorageError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Format(what) => write!(f, "bad pager dump: {what}"),
            PersistError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<StorageError> for PersistError {
    fn from(e: StorageError) -> Self {
        PersistError::Storage(e)
    }
}

impl Pager {
    /// Writes the full disk image to `out` in the current (`SDJPAGE2`,
    /// checksummed) format.
    pub fn save_to(&mut self, out: &mut impl Write) -> std::result::Result<(), PersistError> {
        out.write_all(MAGIC)?;
        out.write_all(&(self.page_size() as u64).to_le_bytes())?;
        let total = self.capacity_pages() as u64;
        out.write_all(&total.to_le_bytes())?;
        let mut buf = vec![0u8; self.page_size()];
        for slot in 0..self.capacity_pages() {
            let id = PageId(slot as u32);
            match self.read(id, &mut buf) {
                Ok(()) => {
                    out.write_all(&[1])?;
                    out.write_all(&self.page_crc(id)?.to_le_bytes())?;
                    out.write_all(&buf)?;
                }
                Err(StorageError::FreedPage(_)) => out.write_all(&[0])?,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Reconstructs a pager from a disk image written by
    /// [`Pager::save_to`]. Freed slots are restored onto the free list so
    /// id allocation continues seamlessly.
    ///
    /// Each stored checksum is verified against the page bytes.
    pub fn load_from(input: &mut impl Read) -> std::result::Result<Self, PersistError> {
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(PersistError::Format("bad magic"));
        }
        let mut u64buf = [0u8; 8];
        input.read_exact(&mut u64buf)?;
        let page_size = u64::from_le_bytes(u64buf) as usize;
        if page_size == 0 || page_size > 1 << 24 {
            return Err(PersistError::Format("implausible page size"));
        }
        input.read_exact(&mut u64buf)?;
        let total = u64::from_le_bytes(u64buf) as usize;
        if total > u32::MAX as usize {
            return Err(PersistError::Format("implausible page count"));
        }

        let mut pager = Pager::new(page_size);
        let mut freed: Vec<PageId> = Vec::new();
        let mut buf = vec![0u8; page_size];
        for slot in 0..total {
            let mut tag = [0u8; 1];
            input.read_exact(&mut tag)?;
            let id = pager.allocate();
            debug_assert_eq!(id.0 as usize, slot);
            match tag[0] {
                1 => {
                    let mut crcbuf = [0u8; 4];
                    input.read_exact(&mut crcbuf)?;
                    input.read_exact(&mut buf)?;
                    if crc32(&buf) != u32::from_le_bytes(crcbuf) {
                        return Err(PersistError::Storage(StorageError::Corrupt(
                            "page checksum mismatch in dump",
                        )));
                    }
                    pager.write(id, &buf)?;
                }
                0 => freed.push(id),
                _ => return Err(PersistError::Format("bad slot tag")),
            }
        }
        for id in freed {
            pager.free(id)?;
        }
        pager.reset_stats();
        Ok(pager)
    }
}

static ATOMIC_SAVE_TOKEN: AtomicU64 = AtomicU64::new(0);

/// Writes a file atomically: the payload goes to a uniquely named temp file
/// in the destination's directory, is flushed and fsynced, and is then
/// renamed over `path`. A crash mid-save leaves the previous file intact.
///
/// Shared by the R-tree and quadtree `save` paths (the `RunReport` writer
/// uses the same pattern).
pub fn save_atomic(
    path: &Path,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::result::Result<(), PersistError>,
) -> std::result::Result<(), PersistError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or(PersistError::Format("save path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let token = ATOMIC_SAVE_TOKEN.fetch_add(1, Ordering::Relaxed);
    let tmp_name = format!(".{file_name}.tmp{}.{token:x}", std::process::id());
    let tmp_path = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let file = std::fs::File::create(&tmp_path)?;
        let mut out = std::io::BufWriter::new(file);
        write(&mut out)?;
        out.flush()?;
        out.get_ref().sync_all()?;
        std::fs::rename(&tmp_path, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp_path);
    }
    result
}

/// Reads exactly 8 bytes as a little-endian u64 (shared by index headers).
pub fn read_u64(input: &mut impl Read) -> std::result::Result<u64, PersistError> {
    let mut buf = [0u8; 8];
    input.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Writes a u64 little-endian (shared by index headers).
pub fn write_u64(out: &mut impl Write, v: u64) -> std::result::Result<(), PersistError> {
    out.write_all(&v.to_le_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_pages_and_free_list() {
        let mut pager = Pager::new(32);
        let a = pager.allocate();
        let b = pager.allocate();
        let c = pager.allocate();
        pager.write(a, &[1u8; 32]).unwrap();
        pager.write(b, &[2u8; 32]).unwrap();
        pager.write(c, &[3u8; 32]).unwrap();
        pager.free(b).unwrap();

        let mut bytes = Vec::new();
        pager.save_to(&mut bytes).unwrap();
        let mut back = Pager::load_from(&mut bytes.as_slice()).unwrap();

        let mut buf = [0u8; 32];
        back.read(a, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 32]);
        back.read(c, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 32]);
        assert!(matches!(
            back.read(b, &mut buf),
            Err(StorageError::FreedPage(_))
        ));
        // The freed id is reused on the next allocation.
        assert_eq!(back.allocate(), b);
    }

    #[test]
    fn empty_pager_roundtrip() {
        let mut pager = Pager::new(16);
        let mut bytes = Vec::new();
        pager.save_to(&mut bytes).unwrap();
        let mut back = Pager::load_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.page_size(), 16);
        assert_eq!(back.capacity_pages(), 0);
        let id = back.allocate();
        assert_eq!(id, PageId(0));
    }

    #[test]
    fn rejects_bad_magic() {
        let bytes = b"NOTADUMPxxxxxxxxxxxxxxxx".to_vec();
        assert!(matches!(
            Pager::load_from(&mut bytes.as_slice()),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn rejects_truncated_dump() {
        let mut pager = Pager::new(32);
        let a = pager.allocate();
        pager.write(a, &[7u8; 32]).unwrap();
        let mut bytes = Vec::new();
        pager.save_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() - 5);
        assert!(matches!(
            Pager::load_from(&mut bytes.as_slice()),
            Err(PersistError::Io(_))
        ));
    }

    /// The retired un-checksummed layout is refused by its magic, before a
    /// single unverified page byte is read.
    #[test]
    fn v1_magic_is_a_format_error() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SDJPAGE1");
        bytes.extend_from_slice(&32u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&[0xABu8; 32]);
        assert!(matches!(
            Pager::load_from(&mut bytes.as_slice()),
            Err(PersistError::Format("bad magic"))
        ));
    }

    #[test]
    fn v2_dump_detects_flipped_page_byte() {
        let mut pager = Pager::new(32);
        let a = pager.allocate();
        pager.write(a, &[5u8; 32]).unwrap();
        let mut bytes = Vec::new();
        pager.save_to(&mut bytes).unwrap();
        // Flip a byte inside the page payload (past magic + header + tag + crc).
        let payload_start = 8 + 8 + 8 + 1 + 4;
        bytes[payload_start + 3] ^= 0x40;
        assert!(matches!(
            Pager::load_from(&mut bytes.as_slice()),
            Err(PersistError::Storage(StorageError::Corrupt(_)))
        ));
    }

    #[test]
    fn save_atomic_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("sdj_persist_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.bin");
        std::fs::write(&path, b"old contents").unwrap();
        save_atomic(&path, |out| {
            out.write_all(b"new contents")?;
            Ok(())
        })
        .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        // A failing writer leaves the original file untouched and no temp
        // files behind.
        let r = save_atomic(&path, |_| Err(PersistError::Format("boom")));
        assert!(r.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
