//! Scratch space for stores and sockets, removed on drop.
//!
//! Everything the benchmark writes lives under its `--out` directory
//! (inside the checkout; `bench/out` by default, which `.gitignore`
//! names). The path is kept relative to the working directory so that a
//! Unix socket inside it stays under the 108-byte `sun_path` limit
//! however deep the checkout is.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory that is deleted, with everything in it, when the guard
/// drops — also while a panic unwinds.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    /// Creates `<out>/tmp-<pid>`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created.
    pub fn new(out: &Path) -> std::io::Result<Scratch> {
        let root = out.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh, not yet existing path `<root>/<tag>-<n>`.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{tag}-{n}"))
    }

    /// The scratch root.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removed_on_drop_even_when_unwinding() {
        let out = std::env::temp_dir().join(format!("qr-e2e-scratch-test-{}", std::process::id()));
        let root = {
            let s = Scratch::new(&out).unwrap();
            let a = s.fresh("store");
            let b = s.fresh("store");
            assert_ne!(a, b);
            std::fs::create_dir_all(&a).unwrap();
            std::fs::write(a.join("f"), b"x").unwrap();
            s.root().to_path_buf()
        };
        assert!(!root.exists());

        let out2 = out.clone();
        let panicked = std::panic::catch_unwind(move || {
            let s = Scratch::new(&out2).unwrap();
            std::fs::write(s.root().join("f"), b"x").unwrap();
            panic!("boom");
        });
        assert!(panicked.is_err());
        assert!(!root.exists(), "scratch must not survive a panic");
        let _ = std::fs::remove_dir_all(&out);
    }
}
