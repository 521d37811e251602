//! The CRC-footed file format of checkpoint journals, serve artifacts and
//! cache entries: the body, a newline, and a line holding the body's CRC32
//! as 8 hex digits, committed atomically so that a reader sees either the
//! complete new file or the previous one.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE 802.3, reflected) of a byte slice — the footer checksum
/// (re-exported by `elivagar::checkpoint`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Atomically writes `body` and its CRC32 footer line to `path` (write the
/// temp file `path` + `tmp_suffix`, fsync, rename, best-effort directory
/// fsync), returning the bytes written.
///
/// # Errors
///
/// Returns the path the failing operation targeted (the temp file or
/// `path`) with the OS error. `path` is never left torn: on error it
/// still holds its previous contents, if any.
pub fn write_footed(
    path: &Path,
    body: &[u8],
    tmp_suffix: &str,
) -> Result<u64, (PathBuf, io::Error)> {
    let mut content = Vec::with_capacity(body.len() + 10);
    content.extend_from_slice(body);
    content.extend_from_slice(format!("\n{:08x}\n", crc32(body)).as_bytes());

    let mut tmp = path.as_os_str().to_owned();
    tmp.push(tmp_suffix);
    let tmp = PathBuf::from(tmp);
    let at_tmp = |e| (tmp.clone(), e);
    {
        let mut file = fs::File::create(&tmp).map_err(at_tmp)?;
        file.write_all(&content).map_err(at_tmp)?;
        file.sync_all().map_err(at_tmp)?;
    }
    fs::rename(&tmp, path).map_err(|e| (path.to_path_buf(), e))?;
    // Make the rename itself durable. Directory fsync is advisory on some
    // platforms, so failures are not fatal.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(content.len() as u64)
}

/// Verifies the footer of a file written by [`write_footed`] and returns
/// its body. The footer is ASCII, so the body of UTF-8 text is a UTF-8
/// prefix of it.
///
/// # Errors
///
/// Describes the first check that failed: a missing trailing newline
/// (truncated write), a missing or unparseable footer, or a checksum
/// mismatch.
pub fn check_footer(bytes: &[u8]) -> Result<&[u8], String> {
    let stripped = bytes
        .strip_suffix(b"\n")
        .ok_or("missing trailing newline (truncated write)")?;
    let at = stripped
        .iter()
        .rposition(|&b| b == b'\n')
        .ok_or("missing checksum footer")?;
    let (body, footer) = (&stripped[..at], &stripped[at + 1..]);
    let footer = String::from_utf8_lossy(footer);
    let expected = u32::from_str_radix(footer.trim(), 16)
        .map_err(|_| format!("unparseable checksum footer {footer:?}"))?;
    let actual = crc32(body);
    if actual != expected {
        return Err(format!(
            "checksum mismatch: body {actual:08x} != footer {expected:08x}"
        ));
    }
    Ok(body)
}
