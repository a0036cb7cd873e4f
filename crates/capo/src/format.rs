//! The recording-level format manifest (`format.qrv`).
//!
//! Individual log files are self-describing at the *container* level
//! (the `QRCF` frame header names a payload kind and container version),
//! but nothing used to describe the recording *as a whole*: which
//! recording-format generation wrote it, which chunk encoding it uses,
//! and which payload kinds are present. The format manifest closes that
//! gap so tools can reason about a recording without decoding its logs,
//! and so `quickrec migrate` can state precisely what it upgraded from
//! and to.
//!
//! Four recording-format generations exist (see `docs/TRACE_FORMAT.md`):
//!
//! | Version | Shape |
//! |---|---|
//! | v1 | bare `QRM1` meta blob, unframed tag-prefixed logs, no footprints ([`crate::migrate`] input only) |
//! | v2 | all files framed (`QRCF`), optional footprint sidecar, no `format.qrv` |
//! | v3 | v2 plus this manifest (the default generation) |
//! | v4 | v3 plus the `order.qrp` partial-order sidecar (`--order partial` only) |
//!
//! The manifest itself is one CRC-32-protected record in a framed
//! container of kind [`PayloadKind::FormatManifest`]: the fields of the
//! [`FormatManifest`] declaration, back to back.

use qr_common::frame::{self, PayloadKind};
use qr_common::wire::{self, Le, List, Wire};
use qr_common::{wire_struct, QrError, Result};
use quickrec_core::Encoding;

/// The recording-format generation current code writes by default.
/// Total-order recordings stay at this generation so their bytes are
/// unchanged by the existence of partial-order recording.
pub const RECORDING_FORMAT_VERSION: u64 = 3;

/// The generation written for partial-order recordings: v3 plus the
/// `order.qrp` sidecar listed in the manifest's payload set.
pub const PARTIAL_ORDER_FORMAT_VERSION: u64 = 4;

/// The shape of a saved recording, as detected from its file set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordingVersion {
    /// Pre-framing layout: bare `QRM1` meta, unframed logs.
    V1Legacy,
    /// Framed layout without a format manifest.
    V2Framed,
    /// Default current layout: framed files plus `format.qrv`.
    V3,
    /// Partial-order layout: v3 plus the `order.qrp` sidecar.
    V4,
}

impl RecordingVersion {
    /// Detects the format generation of a saved recording from the shape
    /// of its file set: an `order.qrp` means v4, a `format.qrv` alone
    /// means v3, all-framed core files mean v2, anything unframed means
    /// v1. Detection is structural only — it does not validate the
    /// files' contents.
    pub fn detect(parts: &crate::recording::RecordingParts) -> RecordingVersion {
        if parts.order.is_some() {
            RecordingVersion::V4
        } else if parts.format.is_some() {
            RecordingVersion::V3
        } else if frame::is_framed(&parts.meta)
            && frame::is_framed(&parts.chunks)
            && frame::is_framed(&parts.inputs)
        {
            RecordingVersion::V2Framed
        } else {
            RecordingVersion::V1Legacy
        }
    }

    /// The refusal every reader but [`crate::migrate`] gives a v1 file
    /// set: v1 has no checksums, so it is upgraded once, strictly, and
    /// never decoded in place.
    pub(crate) fn refuse_unmigrated(self) -> Result<()> {
        match self {
            RecordingVersion::V1Legacy => Err(QrError::Unsupported(format!(
                "recording format {self} (bare `QRM1` meta, unframed logs) is read only by the \
                 migrator: run `quickrec migrate <dir>` to upgrade the recording in place"
            ))),
            _ => Ok(()),
        }
    }

    /// The numeric format generation.
    pub fn number(self) -> u64 {
        match self {
            RecordingVersion::V1Legacy => 1,
            RecordingVersion::V2Framed => 2,
            RecordingVersion::V3 => 3,
            RecordingVersion::V4 => 4,
        }
    }
}

impl std::fmt::Display for RecordingVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.number())
    }
}

wire_struct! {
    /// The decoded contents of `format.qrv`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FormatManifest {
        /// Recording-format generation ([`RECORDING_FORMAT_VERSION`] when
        /// written by current code).
        pub version: u64,
        /// Frame-container version every framed file in the recording
        /// uses ([`frame::VERSION`]).
        pub container: u8 as Le,
        /// Chunk-packet encoding of `chunks.qrl`.
        pub encoding: Encoding,
        /// Payload kinds present in the recording directory, in kind-code
        /// order.
        pub payloads: Vec<PayloadKind> as List<{ PayloadKind::ALL.len() as u64 }>,
    }
}

impl FormatManifest {
    /// The manifest current code writes for a recording saved with
    /// `encoding`, with (`with_footprints`) or without a footprint
    /// sidecar.
    pub fn current(encoding: Encoding, with_footprints: bool) -> FormatManifest {
        let mut payloads = vec![PayloadKind::ChunkLog, PayloadKind::InputLog, PayloadKind::Meta];
        if with_footprints {
            payloads.push(PayloadKind::FootprintLog);
        }
        payloads.push(PayloadKind::FormatManifest);
        payloads.sort_by_key(|k| k.code());
        FormatManifest {
            version: RECORDING_FORMAT_VERSION,
            container: frame::VERSION,
            encoding,
            payloads,
        }
    }

    /// Upgrades the manifest to the partial-order generation: the
    /// `order.qrp` sidecar joins the payload list and the version becomes
    /// [`PARTIAL_ORDER_FORMAT_VERSION`].
    pub fn with_order(mut self) -> FormatManifest {
        if !self.payloads.contains(&PayloadKind::OrderLog) {
            self.payloads.push(PayloadKind::OrderLog);
            self.payloads.sort_by_key(|k| k.code());
        }
        self.version = PARTIAL_ORDER_FORMAT_VERSION;
        self
    }

    /// Serializes the manifest as a framed single-record container.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame::single(PayloadKind::FormatManifest, &wire::encode(self))
    }

    /// Deserializes a manifest written by [`FormatManifest::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Unsupported`] for a manifest from a *newer*
    /// format generation than this code understands (naming both
    /// versions), and [`QrError::Corrupt`] with byte-offset context for
    /// anything structurally malformed.
    pub fn from_bytes(buf: &[u8]) -> Result<FormatManifest> {
        let r = frame::read_single(buf, PayloadKind::FormatManifest, "format manifest")?;
        // The version says whether the rest of the record is ours to read.
        let version = u64::get(&mut r.clone())?;
        if version > PARTIAL_ORDER_FORMAT_VERSION {
            return Err(QrError::Unsupported(format!(
                "recording format version {version} (newest supported {PARTIAL_ORDER_FORMAT_VERSION})"
            )));
        }
        if version < RECORDING_FORMAT_VERSION {
            // v1/v2 recordings have no format.qrv at all, so a manifest
            // claiming an older generation is self-contradictory.
            return Err(r.corrupt(format!("implausible format version {version}")));
        }
        let manifest: FormatManifest = wire::decode(r.clone())?;
        if manifest.container != frame::VERSION {
            return Err(r.corrupt(format!(
                "container version {} does not match frame v{}",
                manifest.container,
                frame::VERSION
            )));
        }
        let payloads = &manifest.payloads;
        if let Some((_, kind)) = payloads.iter().enumerate().find(|&(i, k)| payloads[..i].contains(k)) {
            return Err(r.corrupt(format!("duplicate payload kind {}", kind.name())));
        }
        // The version and the payload list must agree: v4 is *defined*
        // by the presence of the ordering sidecar.
        let has_order = payloads.contains(&PayloadKind::OrderLog);
        if (version == PARTIAL_ORDER_FORMAT_VERSION) != has_order {
            return Err(r.corrupt(format!(
                "format version {version} contradicts its payload list ({} order log)",
                if has_order { "has" } else { "no" }
            )));
        }
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_manifest_round_trips_for_every_encoding() {
        for encoding in Encoding::ALL {
            for with_footprints in [false, true] {
                let m = FormatManifest::current(encoding, with_footprints);
                assert_eq!(m.version, RECORDING_FORMAT_VERSION);
                let back = FormatManifest::from_bytes(&m.to_bytes()).unwrap();
                assert_eq!(back, m);
                assert_eq!(
                    back.payloads.contains(&PayloadKind::FootprintLog),
                    with_footprints
                );
            }
        }
    }

    #[test]
    fn newer_format_version_is_refused_with_both_versions_named() {
        let mut m = FormatManifest::current(Encoding::Delta, true);
        m.version = 99;
        let err = FormatManifest::from_bytes(&m.to_bytes()).unwrap_err();
        let QrError::Unsupported(msg) = &err else {
            panic!("expected Unsupported, got {err}");
        };
        assert!(msg.contains("version 99"), "{msg}");
        assert!(msg.contains("newest supported 4"), "{msg}");
    }

    #[test]
    fn with_order_bumps_to_v4_and_round_trips() {
        for encoding in Encoding::ALL {
            let m = FormatManifest::current(encoding, true).with_order();
            assert_eq!(m.version, PARTIAL_ORDER_FORMAT_VERSION);
            assert!(m.payloads.contains(&PayloadKind::OrderLog));
            let codes: Vec<u8> = m.payloads.iter().map(|k| k.code()).collect();
            assert!(codes.windows(2).all(|w| w[0] < w[1]), "payloads sorted: {codes:?}");
            assert_eq!(FormatManifest::from_bytes(&m.to_bytes()).unwrap(), m);
            // Idempotent.
            assert_eq!(m.clone().with_order(), m);
        }
    }

    #[test]
    fn version_payload_contradictions_are_corrupt() {
        // v4 without the order payload.
        let mut m = FormatManifest::current(Encoding::Delta, true);
        m.version = PARTIAL_ORDER_FORMAT_VERSION;
        let err = FormatManifest::from_bytes(&m.to_bytes()).unwrap_err();
        assert!(matches!(err, QrError::Corrupt { .. }), "{err}");
        // v3 claiming the order payload.
        let mut m = FormatManifest::current(Encoding::Delta, true).with_order();
        m.version = RECORDING_FORMAT_VERSION;
        let err = FormatManifest::from_bytes(&m.to_bytes()).unwrap_err();
        assert!(matches!(err, QrError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn a_payload_kind_listed_twice_is_corrupt() {
        let mut m = FormatManifest::current(Encoding::Delta, false);
        m.payloads.push(PayloadKind::Meta);
        let err = FormatManifest::from_bytes(&m.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("duplicate payload kind recording meta"), "{err}");
    }

    #[test]
    fn older_format_version_in_a_manifest_is_contradictory() {
        let mut m = FormatManifest::current(Encoding::Delta, false);
        m.version = 2;
        assert!(FormatManifest::from_bytes(&m.to_bytes()).is_err());
    }

    #[test]
    fn structural_faults_are_corrupt_errors() {
        let good = FormatManifest::current(Encoding::Raw, true).to_bytes();
        // Truncations.
        for cut in 0..good.len() {
            let err = FormatManifest::from_bytes(&good[..cut]).unwrap_err();
            assert!(
                matches!(err, QrError::Corrupt { .. }),
                "cut {cut}: {err}"
            );
        }
        // Wrong payload kind.
        let mut w = frame::Writer::new(PayloadKind::Meta);
        w.record(&[3, frame::VERSION, 0, 0]);
        assert!(FormatManifest::from_bytes(&w.finish()).is_err());
        // Every single-bit flip is caught by the CRC or a field check.
        for pos in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[pos] ^= 1 << bit;
                assert!(FormatManifest::from_bytes(&bad).is_err(), "flip {pos}.{bit}");
            }
        }
    }

    #[test]
    fn version_display_and_numbers() {
        assert_eq!(RecordingVersion::V1Legacy.to_string(), "v1");
        assert_eq!(RecordingVersion::V2Framed.number(), 2);
        assert_eq!(RecordingVersion::V3.number(), RECORDING_FORMAT_VERSION);
        assert_eq!(RecordingVersion::V4.number(), PARTIAL_ORDER_FORMAT_VERSION);
    }
}
