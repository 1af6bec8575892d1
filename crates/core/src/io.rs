//! Dataset and model persistence: CSV for datasets (interoperable with any
//! external ML tooling), exact text formats for normalizers and
//! [`Featurizer`]s, and a bundled model format carrying the detector *and*
//! its featurizer in one artifact.
//!
//! The CSV layout is one row per sample: `class,<f0>,<f1>,...` with a header
//! row naming the HPCs, so a dataset exported here drops straight into
//! pandas/scikit-learn for anyone who wants to try their own detector on
//! the simulator's HPC streams.
//!
//! Floating-point state (normalizer maxima) is written with Rust's
//! shortest-round-trip formatting, so a load reproduces the exact `f64`
//! bits — deployment-time featurization is byte-identical to training-time.
//!
//! Every fallible function returns the crate-wide typed
//! [`EvaxError`]: [`EvaxError::Parse`] with a
//! 1-based line number for malformed fields, [`EvaxError::Corrupt`] with
//! expected/got context for bad magic headers, checksum failures and
//! dimension disagreements, and [`EvaxError::Io`] for the OS layer. The
//! `*_file` wrappers attach the path so "which file?" is always answerable.

// Lock in the error-API migration: this module must never panic on bad
// input (tests are exempt — unwrapping known-good fixtures is fine there).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use evax_sim::{Snapshot, SnapshotError};

use crate::dataset::{Dataset, Normalizer, Sample, N_CLASSES};
use crate::detector::Detector;
use crate::error::{EvaxError, Result};
use crate::feature_engineering::EngineeredFeature;
use crate::featurize::Featurizer;
use crate::patch::DetectorPatch;

/// Writes a dataset as CSV with a header naming each feature.
///
/// `feature_names` may be shorter than the feature dimension; missing names
/// are filled as `f<i>`.
///
/// # Errors
/// Propagates writer failures.
pub fn write_csv<W: Write>(ds: &Dataset, feature_names: &[&str], mut w: W) -> Result<()> {
    let dim = ds.feature_dim();
    write!(w, "class")?;
    for i in 0..dim {
        match feature_names.get(i) {
            Some(name) => write!(w, ",{name}")?,
            None => write!(w, ",f{i}")?,
        }
    }
    writeln!(w)?;
    for s in &ds.samples {
        write!(w, "{}", s.class)?;
        for &v in &s.features {
            write!(w, ",{v}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Reads a dataset from the CSV produced by [`write_csv`] (the header row is
/// required and skipped).
///
/// # Errors
/// Returns [`EvaxError::Corrupt`] on a missing header and
/// [`EvaxError::Parse`] with the offending line on malformed content.
pub fn read_csv<R: Read>(r: R) -> Result<Dataset> {
    let reader = BufReader::new(r);
    let mut ds = Dataset::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if idx == 0 {
            if !line.starts_with("class") {
                return Err(EvaxError::corrupt(
                    "csv header",
                    "a 'class,...' header row",
                    format!("'{}'", line.trim_end()),
                ));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let class: usize = fields
            .next()
            .ok_or_else(|| EvaxError::parse(idx + 1, "empty row"))?
            .trim()
            .parse()
            .map_err(|e| EvaxError::parse(idx + 1, format!("bad class: {e}")))?;
        if class >= N_CLASSES {
            return Err(EvaxError::parse(
                idx + 1,
                format!("class {class} out of range (< {N_CLASSES})"),
            ));
        }
        let features: Result<Vec<f32>> = fields
            .map(|f| {
                let v = f
                    .trim()
                    .parse::<f32>()
                    .map_err(|e| EvaxError::parse(idx + 1, format!("bad feature '{f}': {e}")))?;
                // "NaN"/"inf" parse successfully but would poison training
                // and scoring downstream; a corrupted dataset must surface
                // here, at the trust boundary.
                if !v.is_finite() {
                    return Err(EvaxError::parse(
                        idx + 1,
                        format!("non-finite feature '{}'", f.trim()),
                    ));
                }
                Ok(v)
            })
            .collect();
        let features = features?;
        if features.is_empty() {
            return Err(EvaxError::parse(idx + 1, "row has no features"));
        }
        if ds.feature_dim() != 0 && features.len() != ds.feature_dim() {
            return Err(EvaxError::parse(
                idx + 1,
                format!(
                    "row has {} features, expected {}",
                    features.len(),
                    ds.feature_dim()
                ),
            ));
        }
        ds.push(Sample::new(features, class));
    }
    Ok(ds)
}

/// Writes a normalizer's running maxima as one CSV row, with exact
/// (shortest-round-trip) `f64` formatting.
///
/// # Errors
/// Propagates writer failures.
pub fn write_normalizer<W: Write>(norm: &Normalizer, mut w: W) -> Result<()> {
    for (i, &m) in norm.maxima().iter().enumerate() {
        if i > 0 {
            write!(w, ",")?;
        }
        write!(w, "{m}")?;
    }
    writeln!(w)?;
    Ok(())
}

/// Reads a normalizer written by [`write_normalizer`].
///
/// # Errors
/// Returns [`EvaxError::Parse`] on malformed content.
pub fn read_normalizer<R: Read>(r: R) -> Result<Normalizer> {
    let mut reader = BufReader::new(r);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let maxes = parse_maxima(&line, 1, "normalizer maxima")?;
    let mut norm = Normalizer::new(maxes.len());
    norm.observe(&maxes);
    Ok(norm)
}

/// Parses a comma-separated row of normalizer maxima, blaming 1-based line
/// `ln` on a malformed field. A NaN/Inf maximum parses fine but silently
/// zeroes (or NaNs) every deployment-time feature, so it is rejected as
/// corruption of `what`.
fn parse_maxima(row: &str, ln: usize, what: &str) -> Result<Vec<f64>> {
    row.trim()
        .split(',')
        .map(|f| {
            let v = f
                .parse::<f64>()
                .map_err(|e| EvaxError::parse(ln, format!("bad max '{f}': {e}")))?;
            if !v.is_finite() {
                return Err(EvaxError::corrupt(what, "finite values", format!("'{f}'")));
            }
            Ok(v)
        })
        .collect()
}

/// Magic first line of the legacy (pre-schema) featurizer text format.
const FEATURIZER_HEADER: &str = "evax-featurizer v1";
/// Magic first line of the schema-versioned featurizer text format.
const FEATURIZER_HEADER_V2: &str = "evax-featurizer v2";
/// Magic first line of the legacy (pre-schema) bundled model format.
const MODEL_HEADER: &str = "evax-model v1";
/// Magic first line of the schema-versioned bundled model format.
const MODEL_HEADER_V2: &str = "evax-model v2";

/// Renders a featurizer's sensor schema as the v2 `schema` row:
/// `schema <fingerprint:016x> <name>:<tag>,...` using
/// [`Modality::tag`](evax_sim::Modality::tag) characters.
///
/// # Errors
/// Rejects column names containing the row's `:` / `,` / whitespace
/// delimiters (none of the canonical counter names do).
fn write_schema_row<W: Write>(schema: &evax_sim::FeatureSchema, mut w: W) -> Result<()> {
    write!(w, "schema {:016x} ", schema.fingerprint())?;
    for (i, (name, modality)) in schema.columns().enumerate() {
        if name.contains([':', ',']) || name.chars().any(char::is_whitespace) {
            return Err(EvaxError::parse(
                0,
                format!("schema column name {name:?} contains a delimiter"),
            ));
        }
        if i > 0 {
            write!(w, ",")?;
        }
        write!(w, "{}:{}", name, modality.tag())?;
    }
    writeln!(w)?;
    Ok(())
}

/// Parses the v2 `schema` row written by [`write_schema_row`], verifying
/// the recorded fingerprint against one recomputed from the parsed
/// columns (a digit flipped anywhere in the row surfaces as corruption).
fn parse_schema_row(row: &str, ln: usize) -> Result<evax_sim::FeatureSchema> {
    let rest = row
        .trim_end()
        .strip_prefix("schema ")
        .ok_or_else(|| EvaxError::parse(ln, "expected 'schema <fingerprint> <columns>' row"))?;
    let (fp_hex, cols) = rest
        .split_once(' ')
        .ok_or_else(|| EvaxError::parse(ln, "schema row missing column list"))?;
    let fingerprint = u64::from_str_radix(fp_hex, 16)
        .map_err(|e| EvaxError::parse(ln, format!("bad schema fingerprint '{fp_hex}': {e}")))?;
    let columns: Vec<(String, evax_sim::Modality)> = cols
        .split(',')
        .map(|c| {
            let (name, tag) = c
                .rsplit_once(':')
                .ok_or_else(|| EvaxError::parse(ln, format!("bad schema column '{c}'")))?;
            let tag_char = match tag.chars().next() {
                Some(t) if tag.len() == 1 => t,
                _ => return Err(EvaxError::parse(ln, format!("bad modality tag '{tag}'"))),
            };
            let modality = evax_sim::Modality::from_tag(tag_char)
                .ok_or_else(|| EvaxError::parse(ln, format!("unknown modality tag '{tag}'")))?;
            Ok((name.to_string(), modality))
        })
        .collect::<Result<_>>()?;
    let schema = evax_sim::FeatureSchema::from_columns(columns);
    if schema.fingerprint() != fingerprint {
        return Err(EvaxError::corrupt(
            "schema fingerprint",
            format!("{fingerprint:016x} (recorded in the header)"),
            format!(
                "{:016x} (recomputed from the columns)",
                schema.fingerprint()
            ),
        ));
    }
    Ok(schema)
}

/// Writes a [`Featurizer`] — the deployable window→feature transform — as a
/// small text document: header, the sensor-schema row (fingerprint plus
/// named, modality-tagged columns), dimensions, the normalizer maxima row,
/// and one `name|i,j,...` line per engineered security HPC.
///
/// Always writes the v2 (schema-versioned) format; [`read_featurizer`]
/// still accepts pre-schema v1 artifacts.
///
/// # Errors
/// Propagates writer failures, or rejects a featurizer whose engineered
/// names contain the `|` / newline delimiters.
pub fn write_featurizer<W: Write>(f: &Featurizer, mut w: W) -> Result<()> {
    writeln!(w, "{FEATURIZER_HEADER_V2}")?;
    write_schema_row(&f.base_schema(), &mut w)?;
    writeln!(w, "{},{}", f.base_dim(), f.engineered().len())?;
    write_normalizer(f.normalizer(), &mut w)?;
    for e in f.engineered() {
        if e.name.contains('|') || e.name.contains('\n') {
            return Err(EvaxError::parse(
                0,
                format!("engineered name {:?} contains a delimiter", e.name),
            ));
        }
        write!(w, "{}|", e.name)?;
        for (i, c) in e.components.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(w, "{c}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Parses the featurizer block from an enumerated line stream (shared by
/// [`read_featurizer`] and [`read_model`]). Line numbers are 1-based.
fn parse_featurizer<'a, I>(lines: &mut I) -> Result<Featurizer>
where
    I: Iterator<Item = (usize, &'a str)>,
{
    let mut next = |what: &str| {
        lines
            .next()
            .ok_or_else(|| EvaxError::parse(0, format!("truncated featurizer: missing {what}")))
    };

    let (_, header) = next("header")?;
    let versioned = match header.trim() {
        FEATURIZER_HEADER => false,
        FEATURIZER_HEADER_V2 => true,
        other => {
            return Err(EvaxError::corrupt(
                "featurizer header",
                format!("'{FEATURIZER_HEADER_V2}' (or legacy '{FEATURIZER_HEADER}')"),
                format!("'{other}'"),
            ))
        }
    };
    let base_schema = if versioned {
        let (ln, row) = next("schema row")?;
        Some(parse_schema_row(row, ln)?)
    } else {
        None
    };
    let (ln, dims) = next("dimension row")?;
    let (base_dim, n_eng) = dims
        .trim()
        .split_once(',')
        .and_then(|(a, b)| Some((a.parse::<usize>().ok()?, b.parse::<usize>().ok()?)))
        .ok_or_else(|| EvaxError::parse(ln, format!("bad dimension row '{}'", dims.trim())))?;

    let (ln, maxima_row) = next("normalizer maxima")?;
    let maxima = parse_maxima(maxima_row, ln, "featurizer maxima")?;
    if maxima.len() != base_dim {
        return Err(EvaxError::corrupt(
            "featurizer maxima row",
            format!("{base_dim} maxima (per the dimension row)"),
            format!("{}", maxima.len()),
        ));
    }

    // `n_eng` comes from the file: grow as rows arrive rather than trusting
    // it as an allocation size.
    let mut engineered = Vec::new();
    for _ in 0..n_eng {
        let (ln, row) = next("engineered feature")?;
        let (name, comps) = row.trim_end().split_once('|').ok_or_else(|| {
            EvaxError::parse(ln, format!("bad engineered row '{}'", row.trim_end()))
        })?;
        let components: Vec<usize> = if comps.is_empty() {
            Vec::new()
        } else {
            comps
                .split(',')
                .map(|c| {
                    c.parse::<usize>()
                        .map_err(|e| EvaxError::parse(ln, format!("bad component '{c}': {e}")))
                })
                .collect::<Result<_>>()?
        };
        if let Some(&c) = components.iter().find(|&&c| c >= base_dim) {
            return Err(EvaxError::corrupt(
                "engineered feature component",
                format!("an index below the base dimension {base_dim}"),
                format!("{c}"),
            ));
        }
        engineered.push(EngineeredFeature {
            name: name.to_string(),
            components,
        });
    }
    let normalizer = Normalizer::from_maxima(maxima);
    match base_schema {
        Some(schema) => {
            if schema.dim() != base_dim {
                return Err(EvaxError::corrupt(
                    "featurizer schema row",
                    format!("{base_dim} columns (per the dimension row)"),
                    format!("{}", schema.dim()),
                ));
            }
            Featurizer::with_schema(schema, normalizer, engineered)
        }
        // Legacy v1 artifacts carry no schema: infer it from the width
        // (baseline-133 gets the canonical named schema, so pre-redesign
        // artifacts keep their exact pre-redesign feature identity).
        None => Ok(Featurizer::new(normalizer, engineered)),
    }
}

/// Reads a featurizer written by [`write_featurizer`]. The round trip is
/// exact: maxima are restored bit-for-bit, so deployment-time featurization
/// matches training-time byte-for-byte.
///
/// # Errors
/// Returns [`EvaxError::Parse`] / [`EvaxError::Corrupt`] on malformed
/// content.
pub fn read_featurizer<R: Read>(mut r: R) -> Result<Featurizer> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    parse_featurizer(&mut lines)
}

/// [`read_featurizer`] from a path, with the path attached to any error.
///
/// # Errors
/// As [`read_featurizer`], plus [`EvaxError::Io`] when the file cannot be
/// opened; every error carries the path.
pub fn read_featurizer_file<P: AsRef<Path>>(path: P) -> Result<Featurizer> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| EvaxError::from(e).with_path(path))?;
    read_featurizer(BufReader::new(file)).map_err(|e| e.with_path(path))
}

/// [`write_featurizer`] to a path, with the path attached to any error.
///
/// # Errors
/// As [`write_featurizer`]; every error carries the path.
pub fn write_featurizer_file<P: AsRef<Path>>(f: &Featurizer, path: P) -> Result<()> {
    let path = path.as_ref();
    let file = std::fs::File::create(path).map_err(|e| EvaxError::from(e).with_path(path))?;
    write_featurizer(f, std::io::BufWriter::new(file)).map_err(|e| e.with_path(path))
}

/// Writes a complete deployable model: the featurizer followed by the
/// vendor-patch encoding of the detector ([`DetectorPatch`], hex-armored).
/// One artifact carries the detector *and* the exact transform it was
/// trained on, so the two can never be deployed out of sync.
///
/// # Errors
/// Propagates writer failures.
pub fn write_model<W: Write>(
    detector: &Detector,
    featurizer: &Featurizer,
    revision: u32,
    w: W,
) -> Result<()> {
    write_model_with_hardened(detector, featurizer, revision, None, w)
}

/// [`write_model`] plus an optional hardened deployment variant (stochastic,
/// ensemble, quantized — any [`evax_nn::Detector`]): the trait-level model
/// is appended as a `hardened <kind> <hex>` row via its serialization hooks.
/// Bundles without the row read back exactly as before, so the format stays
/// backward compatible.
///
/// # Errors
/// Propagates writer failures.
pub fn write_model_with_hardened<W: Write>(
    detector: &Detector,
    featurizer: &Featurizer,
    revision: u32,
    hardened: Option<&dyn evax_nn::Detector>,
    mut w: W,
) -> Result<()> {
    writeln!(w, "{MODEL_HEADER_V2}")?;
    write_featurizer(featurizer, &mut w)?;
    let blob = DetectorPatch::from_detector(detector, featurizer.base_dim(), revision).to_bytes();
    write!(w, "patch ")?;
    for b in blob {
        write!(w, "{b:02x}")?;
    }
    writeln!(w)?;
    if let Some(model) = hardened {
        write!(w, "hardened {} ", model.kind())?;
        for b in model.save_bytes() {
            write!(w, "{b:02x}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// A model loaded by [`read_model`]: detector, featurizer, and the patch
/// revision it shipped at.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// The deployed detector, reconstructed from its patch encoding.
    pub detector: Detector,
    /// The window→feature transform the detector was trained on.
    pub featurizer: Featurizer,
    /// Patch revision of the bundled detector.
    pub revision: u32,
    /// The hardened deployment variant, when the bundle carries one (see
    /// [`write_model_with_hardened`]).
    pub hardened: Option<Box<dyn evax_nn::Detector>>,
}

/// Reads a model written by [`write_model`], verifying the embedded patch
/// checksum and that the detector's base dimension matches the featurizer.
///
/// # Errors
/// Returns [`EvaxError::Parse`] on malformed content and
/// [`EvaxError::Corrupt`] on a bad header, checksum mismatch, or a
/// detector/featurizer dimension disagreement.
pub fn read_model<R: Read>(mut r: R) -> Result<ModelBundle> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    let (_, header) = lines
        .next()
        .ok_or_else(|| EvaxError::parse(1, "empty model file"))?;
    if header.trim() != MODEL_HEADER_V2 && header.trim() != MODEL_HEADER {
        return Err(EvaxError::corrupt(
            "model header",
            format!("'{MODEL_HEADER_V2}' (or legacy '{MODEL_HEADER}')"),
            format!("'{}'", header.trim()),
        ));
    }
    let featurizer = parse_featurizer(&mut lines)?;
    let (ln, patch_row) = lines
        .next()
        .ok_or_else(|| EvaxError::parse(0, "truncated model: missing patch row"))?;
    let hex = patch_row
        .strip_prefix("patch ")
        .ok_or_else(|| EvaxError::parse(ln, "expected 'patch <hex>' row"))?
        .trim();
    let blob = parse_hex(hex, ln)?;
    let patch = DetectorPatch::from_bytes(&blob).map_err(|e| {
        EvaxError::corrupt("detector patch", "a checksummed patch blob", e.to_string())
    })?;
    let revision = patch.revision;
    let detector = patch.instantiate(featurizer.base_dim()).map_err(|e| {
        EvaxError::corrupt(
            "model bundle",
            format!("a patch fitting base dimension {}", featurizer.base_dim()),
            e.to_string(),
        )
    })?;
    // Optional trailing `hardened <kind> <hex>` row (newer bundles).
    let hardened = match lines.next() {
        None => None,
        Some((ln, row)) => {
            let rest = row
                .strip_prefix("hardened ")
                .ok_or_else(|| EvaxError::parse(ln, "expected 'hardened <kind> <hex>' row"))?;
            let (kind, hex) = rest
                .trim_end()
                .split_once(' ')
                .ok_or_else(|| EvaxError::parse(ln, "expected 'hardened <kind> <hex>' row"))?;
            let blob = parse_hex(hex, ln)?;
            let model = evax_nn::load_detector(kind, &blob).map_err(|e| {
                EvaxError::corrupt("hardened detector", "a valid detector encoding", e)
            })?;
            if model.n_features() != detector.extended_dim() {
                return Err(EvaxError::corrupt(
                    "hardened detector",
                    format!("feature dimension {}", detector.extended_dim()),
                    format!("{}", model.n_features()),
                ));
            }
            Some(model)
        }
    };
    Ok(ModelBundle {
        detector,
        featurizer,
        revision,
        hardened,
    })
}

/// Decodes a hex payload, blaming 1-based line `ln` on malformation.
fn parse_hex(hex: &str, ln: usize) -> Result<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return Err(EvaxError::parse(ln, "odd-length hex payload"));
    }
    // Decode bytewise: slicing the `str` would panic inside a multi-byte
    // character.
    let nibble = |c: u8| {
        char::from(c)
            .to_digit(16)
            .ok_or_else(|| EvaxError::parse(ln, format!("non-hex byte 0x{c:02x}")))
    };
    hex.as_bytes()
        .chunks_exact(2)
        .map(|pair| Ok((nibble(pair[0])? * 16 + nibble(pair[1])?) as u8))
        .collect()
}

/// [`read_model`] from a path, with the path attached to any error.
///
/// # Errors
/// As [`read_model`], plus [`EvaxError::Io`] when the file cannot be
/// opened; every error carries the path.
pub fn read_model_file<P: AsRef<Path>>(path: P) -> Result<ModelBundle> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| EvaxError::from(e).with_path(path))?;
    read_model(BufReader::new(file)).map_err(|e| e.with_path(path))
}

/// [`write_model`] to a path, with the path attached to any error.
///
/// # Errors
/// As [`write_model`]; every error carries the path.
pub fn write_model_file<P: AsRef<Path>>(
    detector: &Detector,
    featurizer: &Featurizer,
    revision: u32,
    path: P,
) -> Result<()> {
    let path = path.as_ref();
    let file = std::fs::File::create(path).map_err(|e| EvaxError::from(e).with_path(path))?;
    write_model(
        detector,
        featurizer,
        revision,
        std::io::BufWriter::new(file),
    )
    .map_err(|e| e.with_path(path))
}

/// Converts a simulator [`SnapshotError`] into the crate-wide typed error:
/// truncation becomes [`EvaxError::Parse`] (line 0 — binary streams are not
/// line-addressable), everything else becomes [`EvaxError::Corrupt`] with
/// expected/got context.
fn snapshot_error(e: SnapshotError) -> EvaxError {
    let magic = String::from_utf8_lossy(evax_sim::snapshot::SNAPSHOT_MAGIC);
    match e {
        SnapshotError::Header { got } => EvaxError::corrupt(
            "snapshot header",
            format!("{:?}", magic.trim_end()),
            format!("{got:?}"),
        ),
        SnapshotError::Truncated { what } => {
            EvaxError::parse(0, format!("snapshot truncated while reading {what}"))
        }
        SnapshotError::Checksum { expected, got } => EvaxError::corrupt(
            "snapshot checksum",
            format!("{expected:#018x}"),
            format!("{got:#018x}"),
        ),
        SnapshotError::ConfigMismatch { expected, got } => EvaxError::corrupt(
            "snapshot config fingerprint",
            format!("{expected:#018x}"),
            format!("{got:#018x}"),
        ),
        SnapshotError::Malformed { what } => {
            EvaxError::corrupt("snapshot payload", "a structurally valid word stream", what)
        }
    }
}

/// Writes a simulator checkpoint ([`Snapshot`]) to a path in its versioned,
/// checksummed binary format, with the path attached to any error.
///
/// # Errors
/// Returns [`EvaxError::Io`] when the file cannot be written; the error
/// carries the path.
pub fn write_snapshot_file<P: AsRef<Path>>(snap: &Snapshot, path: P) -> Result<()> {
    let path = path.as_ref();
    std::fs::write(path, snap.to_bytes()).map_err(|e| EvaxError::from(e).with_path(path))
}

/// Reads a simulator checkpoint written by [`write_snapshot_file`],
/// validating the magic header, section structure and trailing checksum.
///
/// # Errors
/// Returns [`EvaxError::Io`] when the file cannot be opened,
/// [`EvaxError::Parse`] on truncation and [`EvaxError::Corrupt`] on a bad
/// header, checksum mismatch or malformed payload; every error carries the
/// path.
pub fn read_snapshot_file<P: AsRef<Path>>(path: P) -> Result<Snapshot> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| EvaxError::from(e).with_path(path))?;
    Snapshot::from_bytes(&bytes).map_err(|e| snapshot_error(e).with_path(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        let mut ds = Dataset::new();
        ds.push(Sample::new(vec![0.5, 0.25, 1.0], 0));
        ds.push(Sample::new(vec![0.1, 0.9, 0.0], 3));
        ds
    }

    #[test]
    fn csv_round_trip() {
        let ds = sample_dataset();
        let mut buf = Vec::new();
        write_csv(&ds, &["a", "b"], &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("class,a,b,f2\n"));
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.samples[0].features, ds.samples[0].features);
        assert_eq!(back.samples[1].class, 3);
        assert!(back.samples[1].malicious);
    }

    #[test]
    fn missing_header_rejected() {
        let err = read_csv("1,0.5,0.5\n".as_bytes()).unwrap_err();
        assert!(matches!(err, EvaxError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("class"), "{err}");
    }

    #[test]
    fn ragged_rows_rejected() {
        let csv = "class,a,b\n0,0.1,0.2\n1,0.3\n";
        let err = read_csv(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, EvaxError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn out_of_range_class_rejected() {
        let csv = "class,a\n99,0.1\n";
        assert!(read_csv(csv.as_bytes()).is_err());
    }

    #[test]
    fn bad_feature_reports_line() {
        let csv = "class,a\n0,0.1\n0,oops\n";
        match read_csv(csv.as_bytes()) {
            Err(EvaxError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn normalizer_round_trip_is_exact() {
        let mut norm = Normalizer::new(3);
        // Deliberately awkward values: shortest-round-trip formatting must
        // restore the exact bits, not a close approximation.
        norm.observe(&[10.0 / 3.0, 0.0, 0.1 + 0.2]);
        let mut buf = Vec::new();
        write_normalizer(&norm, &mut buf).unwrap();
        let back = read_normalizer(buf.as_slice()).unwrap();
        assert_eq!(back.dim(), 3);
        let bits = |n: &Normalizer| n.maxima().iter().map(|m| m.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&norm), bits(&back));
        let v = back.normalize(&[5.0, 1.0, 2.5]);
        assert_eq!(v[1], 0.0); // zero max stays degenerate
    }

    fn sample_featurizer() -> Featurizer {
        let mut norm = Normalizer::new(4);
        norm.observe(&[1.0 / 7.0, 3.0e-17, 0.0, 42.5]);
        Featurizer::new(
            norm,
            vec![
                EngineeredFeature {
                    name: "a_AND_b".into(),
                    components: vec![0, 1],
                },
                EngineeredFeature {
                    name: "c_AND_d_AND_a".into(),
                    components: vec![2, 3, 0],
                },
            ],
        )
    }

    #[test]
    fn featurizer_round_trip_is_exact() {
        let f = sample_featurizer();
        let mut buf = Vec::new();
        write_featurizer(&f, &mut buf).unwrap();
        let back = read_featurizer(buf.as_slice()).unwrap();
        assert_eq!(back, f);
        // Featurization through the restored transform is bit-identical.
        let raw = [0.05, 1.0e-18, 3.0, 40.0];
        assert_eq!(
            f.featurize(&raw)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            back.featurize(&raw)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn featurizer_rejects_corruption() {
        let f = sample_featurizer();
        let mut buf = Vec::new();
        write_featurizer(&f, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Missing header → Corrupt with expected/got context.
        let err = read_featurizer(&text.as_bytes()["evax-".len()..]).unwrap_err();
        assert!(matches!(err, EvaxError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains(FEATURIZER_HEADER), "{err}");
        // Truncated engineered block → Parse naming the missing piece.
        let cut = text.trim_end().rfind('\n').unwrap();
        let err = read_featurizer(&text.as_bytes()[..cut]).unwrap_err();
        assert!(matches!(err, EvaxError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
        // Out-of-range component index → Corrupt (pieces disagree).
        let poked = text.replace("|2,3,0", "|2,9,0");
        let err = read_featurizer(poked.as_bytes()).unwrap_err();
        assert!(matches!(err, EvaxError::Corrupt { .. }), "{err}");
        // Maxima row shorter than the dimension row promises.
        let shorter = text.replacen("4,2", "5,2", 1);
        let err = read_featurizer(shorter.as_bytes()).unwrap_err();
        assert!(matches!(err, EvaxError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn huge_engineered_count_is_a_parse_error_not_an_abort() {
        // The count is only a promise: a short file runs out of rows.
        for dims in ["2,100000000000000", "2,18446744073709551615"] {
            let text = format!("{FEATURIZER_HEADER}\n{dims}\n1,1\n");
            let err = read_featurizer(text.as_bytes()).unwrap_err();
            assert!(matches!(err, EvaxError::Parse { .. }), "{err}");
            assert!(
                err.to_string().contains("missing engineered feature"),
                "{err}"
            );
        }
    }

    #[test]
    fn non_ascii_hex_payload_is_a_parse_error_on_its_line() {
        let (_, _, text) = sample_model_text();
        let patch_ln = text.lines().position(|l| l.starts_with("patch ")).unwrap() + 1;
        let patch_row = text.lines().nth(patch_ln - 1).unwrap();
        // An even byte count that splits the two-byte 'é' across hex pairs.
        let bad = text.replacen(patch_row, "patch a\u{e9}0", 1);
        match read_model(bad.as_bytes()) {
            Err(EvaxError::Parse { line, .. }) => assert_eq!(line, patch_ln),
            other => panic!("expected Parse on line {patch_ln}, got {other:?}"),
        }
        let bad = format!("{text}hardened hw-perceptron a\u{e9}0\n");
        match read_model(bad.as_bytes()) {
            Err(EvaxError::Parse { line, .. }) => assert_eq!(line, patch_ln + 1),
            other => panic!("expected Parse on line {}, got {other:?}", patch_ln + 1),
        }
    }

    fn sample_model_text() -> (Detector, Featurizer, String) {
        use crate::dataset::Sample;
        use crate::detector::{Detector, DetectorKind, TrainConfig};
        use rand::SeedableRng;

        let featurizer = sample_featurizer();
        let mut ds = Dataset::new();
        for i in 0..12 {
            let x = i as f32 / 12.0;
            ds.push(Sample::new(vec![x, 1.0 - x, x * x, 0.5], (i % 2) * 3));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let detector = Detector::train(
            DetectorKind::Evax,
            &ds,
            featurizer.engineered().to_vec(),
            &TrainConfig::default(),
            &mut rng,
        );
        let mut buf = Vec::new();
        write_model(&detector, &featurizer, 3, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        (detector, featurizer, text)
    }

    #[test]
    fn model_bundle_round_trip() {
        let (detector, featurizer, text) = sample_model_text();
        let bundle = read_model(text.as_bytes()).unwrap();
        assert_eq!(bundle.revision, 3);
        assert_eq!(bundle.featurizer, featurizer);
        // The detector survives exactly: same patch encoding, same verdicts.
        assert_eq!(
            DetectorPatch::from_detector(&bundle.detector, featurizer.base_dim(), 3),
            DetectorPatch::from_detector(&detector, featurizer.base_dim(), 3),
        );
    }

    #[test]
    fn hardened_bundle_round_trips_every_kind() {
        let (detector, featurizer, plain) = sample_model_text();
        // Plain bundles (no hardened row) read back with `hardened: None`.
        assert!(read_model(plain.as_bytes()).unwrap().hardened.is_none());

        let stochastic = detector.harden_stochastic(42, 0.05);
        let ensemble = evax_nn::Ensemble::new(vec![
            Box::new(detector.to_model()),
            Box::new(detector.harden_stochastic(7, 0.02)),
        ]);
        let quant = detector.quantize_linear();
        let variants: Vec<&dyn evax_nn::Detector> = vec![&stochastic, &ensemble, &quant];
        for model in variants {
            let mut buf = Vec::new();
            write_model_with_hardened(&detector, &featurizer, 3, Some(model), &mut buf).unwrap();
            let bundle = read_model(buf.as_slice()).unwrap();
            let back = bundle.hardened.unwrap();
            assert_eq!(back.kind(), model.kind());
            // The restored model votes identically on a probe row.
            let probe: Vec<f32> = (0..detector.extended_dim())
                .map(|i| (i as f32 * 0.37).fract())
                .collect();
            let mut scratch = evax_nn::DetectorScratch::new();
            let (s0, v0) = model.decide(&probe, &mut scratch);
            let (s1, v1) = back.decide(&probe, &mut scratch);
            assert_eq!(s0.to_bits(), s1.to_bits());
            assert_eq!(v0, v1);

            // A mangled kind tag is rejected as corruption.
            let text = String::from_utf8(buf).unwrap();
            let bad = text.replacen(&format!("hardened {}", model.kind()), "hardened bogus", 1);
            let err = read_model(bad.as_bytes()).unwrap_err();
            assert!(matches!(err, EvaxError::Corrupt { .. }), "{err}");
        }
    }

    #[test]
    fn corrupt_model_payload_is_a_checksum_corruption() {
        let (_, _, text) = sample_model_text();
        // A flipped byte in the hex payload is caught by the patch checksum.
        let patch_at = text.find("patch ").unwrap() + "patch xxxxxxxx".len();
        let mut bad = text.clone().into_bytes();
        bad[patch_at] = if bad[patch_at] == b'0' { b'1' } else { b'0' };
        let err = read_model(bad.as_slice()).unwrap_err();
        assert!(matches!(err, EvaxError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn truncated_model_is_a_parse_error() {
        let (_, _, text) = sample_model_text();
        // Cut the file before the patch row.
        let cut = text.find("patch ").unwrap();
        let err = read_model(&text.as_bytes()[..cut]).unwrap_err();
        assert!(matches!(err, EvaxError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("missing patch row"), "{err}");
        // Empty input names line 1.
        let err = read_model("".as_bytes()).unwrap_err();
        assert!(matches!(err, EvaxError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn bad_model_header_reports_expected_and_got() {
        let (_, _, text) = sample_model_text();
        let bad = text.replacen(MODEL_HEADER_V2, "evax-model v9", 1);
        match read_model(bad.as_bytes()) {
            Err(EvaxError::Corrupt { expected, got, .. }) => {
                assert!(expected.contains(MODEL_HEADER_V2));
                assert!(got.contains("evax-model v9"));
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn v2_featurizer_embeds_and_verifies_the_schema() {
        let f = sample_featurizer();
        let mut buf = Vec::new();
        write_featurizer(&f, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with(FEATURIZER_HEADER_V2), "{text}");
        let fp = f.base_schema().fingerprint();
        assert!(text.contains(&format!("schema {fp:016x} ")), "{text}");
        let back = read_featurizer(text.as_bytes()).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.schema().fingerprint(), f.schema().fingerprint());
    }

    #[test]
    fn v2_schema_fingerprint_mismatch_is_corruption() {
        let f = sample_featurizer();
        let mut buf = Vec::new();
        write_featurizer(&f, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Rename a column without updating the recorded fingerprint: the
        // recomputed fingerprint disagrees → Corrupt naming both values.
        let poked = text.replacen("f0:h", "fX:h", 1);
        assert_ne!(poked, text);
        match read_featurizer(poked.as_bytes()) {
            Err(EvaxError::Corrupt { what, .. }) => assert_eq!(what, "schema fingerprint"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Flip a digit of the recorded fingerprint itself: same detection.
        let fp = f.base_schema().fingerprint();
        let poked = text.replacen(
            &format!("schema {fp:016x}"),
            &format!("schema {:016x}", fp ^ 1),
            1,
        );
        assert_ne!(poked, text);
        match read_featurizer(poked.as_bytes()) {
            Err(EvaxError::Corrupt { what, .. }) => assert_eq!(what, "schema fingerprint"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn v2_schema_row_malformations_are_parse_errors() {
        let f = sample_featurizer();
        let mut buf = Vec::new();
        write_featurizer(&f, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let fp = format!("{:016x}", f.base_schema().fingerprint());
        for (from, to) in [
            ("schema ", "schemo "),           // wrong row keyword
            ("f1:h", "f1#h"),                 // column missing the ':' separator
            ("f2:h", "f2:z"),                 // unknown modality tag
            (fp.as_str(), "nothexadecimal0"), // unparsable fingerprint
        ] {
            let poked = text.replacen(from, to, 1);
            assert_ne!(poked, text, "{from} must appear in the fixture");
            let err = read_featurizer(poked.as_bytes()).unwrap_err();
            assert!(
                matches!(err, EvaxError::Parse { line: 2, .. }),
                "{from} -> {to}: {err}"
            );
        }
    }

    #[test]
    fn v2_schema_width_must_match_dimension_row() {
        let f = sample_featurizer();
        let mut buf = Vec::new();
        write_featurizer(&f, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Drop one column from the schema row (fingerprint updated so the
        // width disagreement is what surfaces, not the fingerprint).
        let narrower = evax_sim::FeatureSchema::from_columns(
            f.base_schema()
                .columns()
                .take(3)
                .map(|(n, m)| (n.to_string(), m))
                .collect(),
        );
        let mut row = Vec::new();
        write_schema_row(&narrower, &mut row).unwrap();
        let old_fp = f.base_schema().fingerprint();
        let poked = text.replacen(
            &format!("schema {old_fp:016x} f0:h,f1:h,f2:h,f3:h\n"),
            std::str::from_utf8(&row).unwrap(),
            1,
        );
        assert_ne!(poked, text);
        match read_featurizer(poked.as_bytes()) {
            Err(EvaxError::Corrupt { what, .. }) => assert_eq!(what, "featurizer schema row"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// Golden fixture: a pre-redesign (v1, schema-less) baseline-133
    /// artifact, byte-for-byte as `write_featurizer` used to emit it. It
    /// must keep loading, and must come back with the canonical named
    /// baseline schema — not an anonymous one — so old deployments keep
    /// their exact feature identity under the schema redesign.
    #[test]
    fn golden_v1_baseline_artifact_still_loads() {
        use evax_sim::HPC_BASE_DIM;
        let maxima: Vec<String> = (0..HPC_BASE_DIM)
            .map(|i| format!("{}", (i as f64 + 1.0) * 0.5))
            .collect();
        let v1 = format!(
            "evax-featurizer v1\n{},2\n{}\nsec_a|0,5\nsec_b|7,12,31\n",
            HPC_BASE_DIM,
            maxima.join(",")
        );
        let f = read_featurizer(v1.as_bytes()).unwrap();
        assert_eq!(f.base_dim(), HPC_BASE_DIM);
        assert_eq!(f.engineered().len(), 2);
        assert_eq!(f.base_schema(), evax_sim::FeatureSchema::baseline());
        assert_eq!(f.schema().name(0), "cycles");
        assert_eq!(f.schema().name(HPC_BASE_DIM), "sec_a");
        // Re-saving upgrades to v2 with the baseline fingerprint embedded;
        // the upgraded artifact round-trips to the identical featurizer.
        let mut buf = Vec::new();
        write_featurizer(&f, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with(FEATURIZER_HEADER_V2));
        let fp = evax_sim::FeatureSchema::baseline().fingerprint();
        assert!(
            text.contains(&format!("schema {fp:016x} cycles:h,")),
            "{text}"
        );
        assert_eq!(read_featurizer(text.as_bytes()).unwrap(), f);
    }

    /// Same guarantee for bundles: a v1 model (v1 header + v1 featurizer
    /// block + patch row) written before the redesign still loads.
    #[test]
    fn golden_v1_model_bundle_still_loads() {
        let (_, featurizer, v2_text) = sample_model_text();
        // Reconstruct the pre-redesign rendering of this bundle: v1
        // headers, no schema row. (The patch row encoding is unchanged.)
        let fp = featurizer.base_schema().fingerprint();
        let v1_text = v2_text
            .replacen(MODEL_HEADER_V2, MODEL_HEADER, 1)
            .replacen(FEATURIZER_HEADER_V2, FEATURIZER_HEADER, 1)
            .lines()
            .filter(|l| !l.starts_with(&format!("schema {fp:016x}")))
            .map(|l| format!("{l}\n"))
            .collect::<String>();
        assert_ne!(v1_text, v2_text);
        let bundle = read_model(v1_text.as_bytes()).unwrap();
        assert_eq!(bundle.revision, 3);
        assert_eq!(bundle.featurizer, featurizer);
    }

    #[test]
    fn schema_row_rejects_delimiter_names() {
        let schema = evax_sim::FeatureSchema::from_columns(vec![(
            "bad:name".into(),
            evax_sim::Modality::Hpc,
        )]);
        let mut buf = Vec::new();
        let err = write_schema_row(&schema, &mut buf).unwrap_err();
        assert!(matches!(err, EvaxError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("delimiter"), "{err}");
    }

    #[test]
    fn file_wrappers_attach_the_path() {
        let missing = Path::new("/nonexistent/evax-test/model.txt");
        let err = read_model_file(missing).unwrap_err();
        match &err {
            EvaxError::Io { path, .. } => {
                assert_eq!(path.as_deref(), Some(missing));
            }
            other => panic!("expected Io, got {other:?}"),
        }
        assert!(err.to_string().contains("/nonexistent"), "{err}");

        let dir = std::env::temp_dir().join("evax-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        let (detector, featurizer, _) = sample_model_text();
        write_model_file(&detector, &featurizer, 5, &path).unwrap();
        let bundle = read_model_file(&path).unwrap();
        assert_eq!(bundle.revision, 5);
        // Truncate the file on disk: the parse error names the file.
        std::fs::write(&path, "evax-model v1\n").unwrap();
        let err = read_model_file(&path).unwrap_err();
        assert!(matches!(err, EvaxError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("model.txt"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_csv_features_rejected() {
        for bad in ["NaN", "inf", "-inf"] {
            let csv = format!("class,a,b\n0,0.5,{bad}\n");
            match read_csv(csv.as_bytes()) {
                Err(EvaxError::Parse { line, reason, .. }) => {
                    assert_eq!(line, 2);
                    assert!(reason.contains("non-finite"), "{reason}");
                }
                other => panic!("expected parse error for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_maxima_rejected_as_corruption() {
        let err = read_normalizer("1.5,NaN,2.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, EvaxError::Corrupt { .. }), "{err}");

        let f = sample_featurizer();
        let mut buf = Vec::new();
        write_featurizer(&f, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Poison one maximum in the serialized featurizer: the reload must
        // fail typed instead of deploying a NaN transform.
        let poked = text.replacen("42.5", "inf", 1);
        assert_ne!(poked, text, "fixture must contain the poisoned field");
        let err = read_featurizer(poked.as_bytes()).unwrap_err();
        assert!(matches!(err, EvaxError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("finite"), "{err}");
    }

    #[test]
    fn blank_lines_skipped() {
        let csv = "class,a\n0,0.5\n\n1,0.7\n";
        let ds = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn snapshot_file_round_trip() {
        let dir = std::env::temp_dir().join("evax-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.snap");
        let snap = Snapshot {
            config_fingerprint: 0x1234,
            cpu_words: vec![1, 2, 3, u64::MAX],
            cursor_words: Some(vec![7, 8, 9]),
        };
        write_snapshot_file(&snap, &path).unwrap();
        assert_eq!(read_snapshot_file(&path).unwrap(), snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_corruption_rejected_with_typed_errors() {
        let dir = std::env::temp_dir().join("evax-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = Snapshot {
            config_fingerprint: 0x1234,
            cpu_words: vec![10, 20, 30],
            cursor_words: None,
        };
        let bytes = snap.to_bytes();

        // Truncation right after the magic → Parse, with the path attached.
        let path = dir.join("truncated.snap");
        std::fs::write(&path, &bytes[..20]).unwrap();
        let err = read_snapshot_file(&path).unwrap_err();
        assert!(matches!(err, EvaxError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("truncated.snap"), "{err}");

        // Mid-stream truncation is caught by the trailing checksum → Corrupt.
        std::fs::write(&path, &bytes[..bytes.len() - 12]).unwrap();
        let err = read_snapshot_file(&path).unwrap_err();
        assert!(matches!(err, EvaxError::Corrupt { .. }), "{err}");

        // Bad magic → Corrupt naming the expected header.
        let path = dir.join("badmagic.snap");
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        match read_snapshot_file(&path).unwrap_err() {
            EvaxError::Corrupt { what, expected, .. } => {
                assert_eq!(what, "snapshot header");
                assert!(expected.contains("evax-snapshot v1"), "{expected}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Mid-payload bit flip → checksum Corrupt.
        let path = dir.join("bitflip.snap");
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        match read_snapshot_file(&path).unwrap_err() {
            EvaxError::Corrupt { what, .. } => assert_eq!(what, "snapshot checksum"),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Missing file → Io with the path.
        let err = read_snapshot_file(dir.join("nonexistent.snap")).unwrap_err();
        assert!(matches!(err, EvaxError::Io { .. }), "{err}");

        for name in ["truncated.snap", "badmagic.snap", "bitflip.snap"] {
            std::fs::remove_file(dir.join(name)).ok();
        }
    }
}
