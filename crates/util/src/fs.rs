//! Crash-safe file replacement.

use std::path::Path;

use crate::{Error, Result};

/// Replaces the file at `path` with `bytes` atomically: the bytes go to
/// a `.tmp` sibling first and are renamed into place, so a process
/// killed mid-write leaves either the old content or the new — never a
/// torn file — at `path`. A failed write leaves no `.tmp` behind.
///
/// # Errors
///
/// Returns [`Error::Storage`] when `path` has no file name or the write
/// or rename fails.
pub fn write_atomic(path: &Path, bytes: impl AsRef<[u8]>) -> Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| Error::storage(format!("path {} has no file name", path.display())))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        // Whatever reached the sibling is no use to anyone.
        std::fs::remove_file(&tmp).ok();
    }
    Ok(written?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_the_file_and_leaves_no_temp_sibling() {
        let dir = std::env::temp_dir().join("edgetune-util-write-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        write_atomic(&path, "old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!dir.join("state.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_rename_removes_the_temp_sibling() {
        let dir = std::env::temp_dir().join("edgetune-util-write-atomic-fail-test");
        // A directory squats on the target, so the rename must fail.
        std::fs::create_dir_all(dir.join("state.json")).unwrap();
        let err = write_atomic(&dir.join("state.json"), "new").unwrap_err();
        assert!(matches!(err, Error::Storage(_)));
        assert!(!dir.join("state.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_path_without_a_file_name_is_a_storage_error() {
        let err = write_atomic(Path::new("/"), "x").unwrap_err();
        assert!(matches!(&err, Error::Storage(msg) if msg.contains("has no file name")));
    }
}
