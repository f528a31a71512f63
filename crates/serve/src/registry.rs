//! The daemon's model registry: named `.mf` files loaded at startup.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use mfcsl_modelfile::ModelFile;

/// An error raised while building the registry.
#[derive(Debug)]
pub struct RegistryError(pub String);

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RegistryError {}

/// A read-only name → [`ModelFile`] table, built once at daemon startup.
///
/// Models are addressed over the wire by name: the file stem of the `.mf`
/// file they were loaded from (`modelfiles/virus.mf` → `virus`).
#[derive(Debug)]
pub struct ModelRegistry {
    models: BTreeMap<String, ModelFile>,
}

impl ModelRegistry {
    /// Loads models from a list of paths. A file path contributes that one
    /// model; a directory path contributes every `*.mf` file directly
    /// inside it (not recursive, sorted by name).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, parse errors (with the file and line named),
    /// duplicate model names, and an empty result.
    pub fn load(paths: &[PathBuf]) -> Result<Self, RegistryError> {
        let mut files: Vec<PathBuf> = Vec::new();
        for path in paths {
            if path.is_dir() {
                let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                    .map_err(|e| RegistryError(format!("cannot read {}: {e}", path.display())))?
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|ext| ext == "mf"))
                    .collect();
                entries.sort();
                files.extend(entries);
            } else {
                files.push(path.clone());
            }
        }
        let mut models = BTreeMap::new();
        for file in &files {
            let name = model_name(file)?;
            let parsed = ModelFile::load(file)
                .map_err(|e| RegistryError(format!("{}: {e}", file.display())))?;
            // Reject structurally broken models at startup, not at first
            // request: instantiate once and drop the result.
            parsed
                .instantiate()
                .map_err(|e| RegistryError(format!("{}: {e}", file.display())))?;
            if models.insert(name.clone(), parsed).is_some() {
                return Err(RegistryError(format!(
                    "duplicate model name `{name}` ({})",
                    file.display()
                )));
            }
        }
        if models.is_empty() {
            return Err(RegistryError("no .mf models found".into()));
        }
        Ok(ModelRegistry { models })
    }

    /// Looks a model up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ModelFile> {
        self.models.get(name)
    }

    /// All model names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }

    /// Number of registered models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry is empty (never true for a loaded registry).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

fn model_name(path: &Path) -> Result<String, RegistryError> {
    path.file_stem()
        .and_then(|s| s.to_str())
        .map(str::to_string)
        .ok_or_else(|| {
            RegistryError(format!(
                "cannot derive a model name from {}",
                path.display()
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mfcsl-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(text.as_bytes()).unwrap();
        path
    }

    const SIS: &str = "state s : healthy\nstate i : infected\n\
                       param beta = 2\nrate s -> i : beta * m[i]\nrate i -> s : 1\n";

    #[test]
    fn loads_directories_and_files() {
        let dir = scratch_dir("dir");
        write(&dir, "sis.mf", SIS);
        write(&dir, "other.mf", SIS);
        write(&dir, "ignored.txt", "not a model");
        let reg = ModelRegistry::load(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(reg.names(), vec!["other", "sis"]);
        assert!(reg.get("sis").is_some());
        assert!(reg.get("ignored").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_duplicates_and_parse_errors() {
        let dir = scratch_dir("dup");
        let a = write(&dir, "sis.mf", SIS);
        let err = ModelRegistry::load(&[a.clone(), a.clone()]).unwrap_err();
        assert!(err.to_string().contains("duplicate model name `sis`"));
        let bad = write(&dir, "bad.mf", "state a\nrate a -> ghost : 1\n");
        let err = ModelRegistry::load(&[bad]).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(ModelRegistry::load(&[]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
