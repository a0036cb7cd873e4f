//! Recording configuration and the recording artifact.

use crate::format::{FormatManifest, RecordingVersion};
use crate::input_log::{InputLog, InputSalvage};
use crate::timeline::TimelineEvent;
use crate::overhead::{OverheadBreakdown, OverheadModel};
use qr_common::cursor::ByteReader;
use qr_common::frame::{self, PayloadKind};
use qr_common::{QrError, Result};
use qr_cpu::CpuConfig;
use qr_mem::TsoMode;
use qr_os::OsConfig;
use quickrec_core::po::{self, DeriveStats, PoEvent};
use quickrec_core::{
    ChunkLog, FootprintLog, MrrConfig, OrderLog, OrderMode, OrderSalvage, RecorderStats,
    SalvagedPackets,
};

/// How much of the recording stack is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordingMode {
    /// Hardware and the full Capo3 software stack (costs charged). The
    /// default, and the only mode that produces replay-complete logs
    /// with realistic overhead accounting.
    #[default]
    Full,
    /// Recording hardware only: chunks are produced and drained by DMA,
    /// but no software costs are charged (the paper's hardware-overhead
    /// measurement).
    HardwareOnly,
}

/// Everything a recording run needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordingConfig {
    /// Machine configuration.
    pub cpu: CpuConfig,
    /// Kernel configuration.
    pub os: OsConfig,
    /// Recorder-hardware configuration.
    pub mrr: MrrConfig,
    /// RSM cost model.
    pub overhead: OverheadModel,
    /// Stack activation mode.
    pub mode: RecordingMode,
    /// How chunk ordering is persisted: the default global-timestamp
    /// total order, or per-thread partial order with an `order.qrp`
    /// sidecar. Recordings made in the default mode are byte-identical
    /// to recordings made before this field existed.
    pub order: OrderMode,
}

impl RecordingConfig {
    /// Validates all component configurations.
    ///
    /// # Errors
    ///
    /// Returns the first component's [`QrError::InvalidConfig`].
    pub fn validate(&self) -> Result<()> {
        self.cpu.validate()?;
        self.os.validate()?;
        self.mrr.validate()
    }

    /// Convenience: a config with `cores` cores, everything else default.
    pub fn with_cores(cores: usize) -> RecordingConfig {
        RecordingConfig {
            cpu: CpuConfig { num_cores: cores, ..CpuConfig::default() },
            ..RecordingConfig::default()
        }
    }
}

/// Metadata binding a recording to the binary and platform that produced
/// it (the replayer refuses mismatches).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordingMeta {
    /// Digest of the recorded program image.
    pub program_fingerprint: u64,
    /// TSO mode in effect (determines replay drain rules).
    pub tso_mode: TsoMode,
    /// Full machine configuration (replay must match it).
    pub cpu: CpuConfig,
    /// Full kernel configuration (stack layout must match).
    pub os: OsConfig,
}

/// The artifact of one recorded execution.
#[derive(Debug, Clone)]
pub struct Recording {
    /// The memory (chunk) log.
    pub chunks: ChunkLog,
    /// The input log.
    pub inputs: InputLog,
    /// Per-chunk read/write footprints (parallel replay's dependency
    /// evidence). `None` for recordings migrated from v1 and
    /// unsalvageable sidecars; parallel replay then falls back to the
    /// serial path.
    pub footprints: Option<FootprintLog>,
    /// Provenance and platform metadata.
    pub meta: RecordingMeta,
    /// Makespan in cycles (max per-core count).
    pub cycles: u64,
    /// Total retired instructions.
    pub instructions: u64,
    /// Console output of the recorded run.
    pub console: Vec<u8>,
    /// Main thread's exit code.
    pub exit_code: u32,
    /// Architectural-outcome digest (memory + console + exit codes).
    pub fingerprint: u64,
    /// Recorder-hardware statistics.
    pub recorder_stats: RecorderStats,
    /// Where the recording overhead went.
    pub overhead: OverheadBreakdown,
    /// Partial-order sidecar (`order.qrp`): per-thread node counts plus
    /// the happens-before edges that constrain replay. `None` for
    /// total-order recordings (the default), whose ordering lives in the
    /// chunk timestamps.
    pub order: Option<OrderLog>,
}

impl RecordingMeta {
    const MAGIC: &'static [u8; 4] = b"QRM1";

    /// Serializes the metadata (plus the scalar outcome fields passed in)
    /// as a framed container holding one CRC-32-protected record (the
    /// `QRM1` blob a v1 recording holds bare).
    fn to_bytes(&self, outcome: &RecordingOutcomeFields) -> Vec<u8> {
        let mut w = frame::Writer::new(PayloadKind::Meta);
        w.record(&self.to_inner_bytes(outcome));
        w.finish()
    }

    /// The inner `QRM1` metadata blob (the framed record's payload, and
    /// the whole file in a v1 recording).
    fn to_inner_bytes(&self, outcome: &RecordingOutcomeFields) -> Vec<u8> {
        use qr_common::varint::write_u64 as w;
        let mut out = Vec::new();
        out.extend_from_slice(Self::MAGIC);
        w(&mut out, self.program_fingerprint);
        out.push(match self.tso_mode {
            TsoMode::DrainAtChunk => 0,
            TsoMode::Rsw => 1,
        });
        // Machine configuration.
        w(&mut out, self.cpu.num_cores as u64);
        w(&mut out, self.cpu.drain_interval);
        w(&mut out, self.cpu.mem.l1_sets as u64);
        w(&mut out, self.cpu.mem.l1_ways as u64);
        w(&mut out, self.cpu.mem.store_buffer_entries as u64);
        w(&mut out, self.cpu.mem.miss_penalty);
        w(&mut out, self.cpu.mem.intervention_penalty);
        w(&mut out, self.cpu.mem.hit_cycles);
        // Kernel configuration.
        w(&mut out, self.os.quantum_cycles);
        w(&mut out, self.os.stack_bytes as u64);
        w(&mut out, self.os.stack_guard_bytes as u64);
        w(&mut out, self.os.syscall_base_cycles);
        w(&mut out, self.os.copy_cycles_per_byte);
        w(&mut out, self.os.context_switch_cycles);
        w(&mut out, self.os.input_seed);
        w(&mut out, self.os.max_instructions);
        // Outcome scalars.
        w(&mut out, outcome.cycles);
        w(&mut out, outcome.instructions);
        w(&mut out, outcome.exit_code as u64);
        w(&mut out, outcome.fingerprint);
        w(&mut out, outcome.console.len() as u64);
        out.extend_from_slice(&outcome.console);
        out
    }

    /// Deserializes metadata written by [`RecordingMeta::to_bytes`].
    fn from_bytes(buf: &[u8]) -> Result<(RecordingMeta, RecordingOutcomeFields)> {
        let records = frame::read(buf, PayloadKind::Meta, "recording meta")?;
        let [payload] = records[..] else {
            return Err(QrError::Corrupt {
                what: "recording meta".into(),
                offset: frame::HEADER_LEN as u64,
                detail: format!("expected exactly 1 record, found {}", records.len()),
            });
        };
        Self::from_inner_bytes(payload, frame::HEADER_LEN + 4)
    }

    /// Decodes the `QRM1` blob, which starts `base` bytes into its file.
    // Sequential field-by-field decode reads clearer than a giant
    // struct literal here.
    #[allow(clippy::field_reassign_with_default)]
    pub(crate) fn from_inner_bytes(
        buf: &[u8],
        base: usize,
    ) -> Result<(RecordingMeta, RecordingOutcomeFields)> {
        let mut r = ByteReader::at(buf, "recording meta", base);
        if r.bytes(4).ok() != Some(&Self::MAGIC[..]) {
            return Err(r.corrupt_at(0, "bad recording-meta magic"));
        }
        let program_fingerprint = r.varint()?;
        let tso_at = r.pos();
        let tso_mode = match r.u8() {
            Ok(0) => TsoMode::DrainAtChunk,
            Ok(1) => TsoMode::Rsw,
            _ => return Err(r.corrupt_at(tso_at, "bad tso mode")),
        };
        let mut cpu = CpuConfig::default();
        cpu.num_cores = r.varint()? as usize;
        cpu.drain_interval = r.varint()?;
        cpu.mem.tso_mode = tso_mode;
        cpu.mem.l1_sets = r.varint()? as u32;
        cpu.mem.l1_ways = r.varint()? as u32;
        cpu.mem.store_buffer_entries = r.varint()? as usize;
        cpu.mem.miss_penalty = r.varint()?;
        cpu.mem.intervention_penalty = r.varint()?;
        cpu.mem.hit_cycles = r.varint()?;
        let mut os = OsConfig::default();
        os.quantum_cycles = r.varint()?;
        os.stack_bytes = r.varint()? as u32;
        os.stack_guard_bytes = r.varint()? as u32;
        os.syscall_base_cycles = r.varint()?;
        os.copy_cycles_per_byte = r.varint()?;
        os.context_switch_cycles = r.varint()?;
        os.input_seed = r.varint()?;
        os.max_instructions = r.varint()?;
        let cycles = r.varint()?;
        let instructions = r.varint()?;
        let exit_code = r.varint()? as u32;
        let fingerprint = r.varint()?;
        let console_len = r.varint()?;
        if console_len > r.remaining() as u64 {
            return Err(r.corrupt("truncated console"));
        }
        let console = r.bytes(console_len as usize)?.to_vec();
        r.finish()?;
        Ok((
            RecordingMeta { program_fingerprint, tso_mode, cpu, os },
            RecordingOutcomeFields { cycles, instructions, exit_code, fingerprint, console },
        ))
    }
}

/// Scalar outcome fields persisted alongside the metadata.
pub(crate) struct RecordingOutcomeFields {
    cycles: u64,
    instructions: u64,
    exit_code: u32,
    fingerprint: u64,
    console: Vec<u8>,
}

impl Recording {
    /// Memory-log bytes per 1000 recorded instructions — the paper's
    /// log-generation-rate metric (E1), under the configured encoding.
    pub fn log_bytes_per_kilo_instruction(&self, encoding: quickrec_core::Encoding) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        let bytes = self.chunks.to_bytes(encoding).len() as f64;
        bytes * 1000.0 / self.instructions as f64
    }

    /// File names used by [`Recording::save`] within the target directory.
    pub const META_FILE: &'static str = "meta.qrm";
    /// Chunk-log file name.
    pub const CHUNKS_FILE: &'static str = "chunks.qrl";
    /// Input-log file name.
    pub const INPUTS_FILE: &'static str = "inputs.qrl";
    /// Footprint-log file name (an optional sidecar).
    pub const FOOTPRINTS_FILE: &'static str = "footprints.qrl";
    /// Format-manifest file name (absent in v1/v2 recordings; see
    /// [`crate::format`]).
    pub const FORMAT_FILE: &'static str = "format.qrv";
    /// Checkpoint-index sidecar file name (optional: a recording without
    /// one replays from scratch, and the index can be regenerated from
    /// the logs at any time).
    pub const CHECKPOINTS_FILE: &'static str = "checkpoints.qrc";
    /// Partial-order sidecar file name (present only for recordings made
    /// under [`OrderMode::PartialOrder`]).
    pub const ORDER_FILE: &'static str = "order.qrp";

    /// The ordering mode this recording was made under, inferred from
    /// the presence of the `order.qrp` sidecar.
    pub fn order_mode(&self) -> OrderMode {
        if self.order.is_some() { OrderMode::PartialOrder } else { OrderMode::TotalOrder }
    }

    /// Derives the partial-order log of this recording from its
    /// [`Recording::timeline`]: footprints give conflict edges,
    /// successful `SYS_SPAWN` records give spawn edges, and input events
    /// chain the global injection order. The timestamps are consumed
    /// here and stripped — the resulting log is timestamp-free.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] when the footprint sidecar is
    /// missing (there is no conflict evidence to derive edges from) and
    /// [`QrError::LogDecode`] for an ambiguous timeline (duplicate
    /// timestamps).
    pub fn derive_order(&self) -> Result<(OrderLog, DeriveStats)> {
        if self.footprints.is_none() {
            return Err(QrError::InvalidConfig(
                "partial-order derivation needs the footprint sidecar".into(),
            ));
        }
        let events: Vec<PoEvent> = (self.timeline()?.iter())
            .map(|entry| PoEvent {
                tid: entry.event.tid(),
                footprint: entry.footprint,
                is_input: matches!(entry.event, TimelineEvent::Input(_)),
                spawns: entry.event.spawned_child(),
            })
            .collect();
        po::derive(&events)
    }

    /// Serializes the recording into its per-file byte images — the
    /// exact bytes [`Recording::save`] would write to disk. Storage
    /// backends (the `qr-store` repository, the `quickrecd` wire
    /// protocol) consume these without touching the filesystem.
    pub fn to_parts(&self, encoding: quickrec_core::Encoding) -> RecordingParts {
        let outcome = RecordingOutcomeFields {
            cycles: self.cycles,
            instructions: self.instructions,
            exit_code: self.exit_code,
            fingerprint: self.fingerprint,
            console: self.console.clone(),
        };
        let mut manifest =
            crate::format::FormatManifest::current(encoding, self.footprints.is_some());
        if self.order.is_some() {
            manifest = manifest.with_order();
        }
        RecordingParts {
            meta: self.meta.to_bytes(&outcome),
            chunks: self.chunks.to_bytes(encoding),
            inputs: self.inputs.to_bytes(),
            footprints: self.footprints.as_ref().map(|f| f.to_bytes()),
            format: Some(manifest.to_bytes()),
            checkpoints: None,
            order: self.order.as_ref().map(|o| o.to_bytes()),
        }
    }

    /// Puts a recording together from its decoded files. Recorder
    /// statistics and the overhead breakdown are measurement artifacts
    /// that are never persisted, so they come back zeroed.
    pub(crate) fn assemble(
        (meta, outcome): (RecordingMeta, RecordingOutcomeFields),
        chunks: ChunkLog,
        inputs: InputLog,
        footprints: Option<FootprintLog>,
        order: Option<OrderLog>,
    ) -> Recording {
        Recording {
            chunks,
            inputs,
            footprints,
            meta,
            cycles: outcome.cycles,
            instructions: outcome.instructions,
            console: outcome.console,
            exit_code: outcome.exit_code,
            fingerprint: outcome.fingerprint,
            recorder_stats: RecorderStats::default(),
            overhead: OverheadBreakdown::default(),
            order,
        }
    }

    /// Reconstructs a recording from per-file byte images (the inverse
    /// of [`Recording::to_parts`], and what [`Recording::load`] does
    /// after reading the files).
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Unsupported`] for a v1 file set (only
    /// `quickrec migrate` reads those), [`QrError::Corrupt`] with
    /// byte-offset context for malformed or version-mismatched images,
    /// [`QrError::LogDecode`] for internally inconsistent ones.
    pub fn from_parts(parts: &RecordingParts) -> Result<Recording> {
        RecordingVersion::detect(parts).refuse_unmigrated()?;
        // A present format manifest must decode and agree with the chunk
        // log's actual encoding; its absence is legal (the v2 layout).
        if let Some(buf) = &parts.format {
            let manifest = FormatManifest::from_bytes(buf)?;
            if let Some(actual) = quickrec_core::Encoding::sniff_container(&parts.chunks) {
                if actual != manifest.encoding {
                    return Err(QrError::LogDecode(format!(
                        "format manifest claims {} encoding but the chunk log is {}",
                        manifest.encoding.name(),
                        actual.name()
                    )));
                }
            }
            // The manifest's payload list and the actual file set must
            // agree about the ordering sidecar in both directions.
            let claims_order = manifest.payloads.contains(&PayloadKind::OrderLog);
            if claims_order != parts.order.is_some() {
                return Err(QrError::LogDecode(if claims_order {
                    "format manifest lists an order log but order.qrp is missing".into()
                } else {
                    "order.qrp present but the format manifest does not list it".into()
                }));
            }
        }
        let recording = Recording::assemble(
            RecordingMeta::from_bytes(&parts.meta)?,
            ChunkLog::from_bytes(&parts.chunks)?,
            InputLog::from_bytes(&parts.inputs)?,
            parts.footprints.as_deref().map(FootprintLog::from_bytes).transpose()?,
            parts.order.as_deref().map(OrderLog::from_bytes).transpose()?,
        );
        recording.check_consistency()?;
        Ok(recording)
    }

    /// Persists the recording into `dir` (created if missing) as three
    /// files — metadata, the chunk log (in the encoding of `encoding`)
    /// and the input log — plus the footprint sidecar when present.
    ///
    /// Recorder statistics and the overhead breakdown are measurement
    /// artifacts and are not persisted; [`Recording::load`] returns them
    /// zeroed.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] wrapping any I/O failure.
    pub fn save(&self, dir: &std::path::Path, encoding: quickrec_core::Encoding) -> Result<()> {
        self.to_parts(encoding).save(dir)
    }

    /// Loads a recording previously written by [`Recording::save`].
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] naming the file for I/O failures
    /// (a missing `chunks.qrl` and a missing `meta.qrm` are distinct
    /// errors) and [`QrError::Corrupt`] with byte-offset context for
    /// malformed or version-mismatched files.
    pub fn load(dir: &std::path::Path) -> Result<Recording> {
        Self::from_parts(&RecordingParts::read(dir)?)
    }

    /// Loads as much of a torn or corrupted recording as survives its
    /// checksums: the metadata must decode strictly (it anchors replay),
    /// but the chunk and input logs are salvaged to their longest
    /// complete, checksum-valid prefixes.
    ///
    /// Consistency checks that assume a complete log (instruction-count
    /// coverage) are deliberately skipped; the [`RecoveryInfo`] reports
    /// what was lost.
    ///
    /// # Errors
    ///
    /// Returns an error only when the metadata file is unreadable — a
    /// recording without its platform metadata cannot anchor a replay —
    /// or the file set is a v1 recording (which has no checksums to
    /// salvage by; `quickrec migrate` reads it strictly or not at all).
    pub fn load_salvaged(dir: &std::path::Path) -> Result<(Recording, RecoveryInfo)> {
        Self::salvage_from_parts(&RecordingParts::read(dir)?)
    }

    /// [`Recording::load_salvaged`] over in-memory file images: the
    /// metadata must decode strictly, the logs salvage to their longest
    /// valid prefixes. Storage backends route torn entries through this
    /// so damage degrades instead of failing hard.
    ///
    /// # Errors
    ///
    /// As [`Recording::load_salvaged`].
    pub fn salvage_from_parts(parts: &RecordingParts) -> Result<(Recording, RecoveryInfo)> {
        RecordingVersion::detect(parts).refuse_unmigrated()?;
        let meta = RecordingMeta::from_bytes(&parts.meta)?;
        let (chunks, chunk_salvage) = ChunkLog::salvage_from_bytes(&parts.chunks);
        let (inputs, input_salvage) = InputLog::salvage_from_bytes(&parts.inputs);
        // A torn footprint sidecar salvages to a (possibly partial)
        // prefix; parallel replay checks coverage before relying on it.
        let footprints = parts.footprints.as_deref().map(FootprintLog::salvage_from_bytes);
        // A torn ordering sidecar degrades to its longest clean edge
        // prefix — replay still honours every edge that survived.
        let (order, order_salvage) =
            parts.order.as_deref().map(OrderLog::salvage_from_bytes).unzip();
        Ok((
            Recording::assemble(meta, chunks, inputs, footprints, order),
            RecoveryInfo { chunks: chunk_salvage, inputs: input_salvage, order: order_salvage },
        ))
    }

    /// Integrity-checks every file image of a recording without building
    /// one: full strict decode of each, reporting per-file size, format
    /// and the first fault (if any). The sidecars are optional (absent
    /// ones are simply not listed) but a present-and-corrupt one fails.
    /// A v1 file set is refused file by file: nothing here reads it.
    pub fn verify_parts(parts: &RecordingParts) -> VerifyReport {
        let mut files: Vec<FileCheck> =
            parts.files().into_iter().map(|(name, buf)| FileCheck::run(name, buf)).collect();
        if let Err(refusal) = RecordingVersion::detect(parts).refuse_unmigrated() {
            for file in files.iter_mut().filter(|f| f.version.is_none()) {
                file.error = Some(refusal.clone());
            }
        }
        VerifyReport { files }
    }

    /// [`Recording::verify_parts`] over a saved recording. A missing
    /// required file is one failed entry of the report, not an error for
    /// the directory as a whole.
    pub fn verify_dir(dir: &std::path::Path) -> VerifyReport {
        match RecordingParts::read(dir) {
            Ok(parts) => Self::verify_parts(&parts),
            Err(_) => VerifyReport {
                files: [Self::META_FILE, Self::CHUNKS_FILE, Self::INPUTS_FILE]
                    .into_iter()
                    .map(|name| match read_file(dir, name) {
                        Ok(buf) => FileCheck::run(name, &buf),
                        Err(e) => FileCheck::unreadable(name, e),
                    })
                    .collect(),
            },
        }
    }

    /// Validates internal consistency (chunk instruction counts vs. the
    /// retired total; monotonic timestamps).
    ///
    /// # Errors
    ///
    /// Returns [`QrError::LogDecode`] describing the inconsistency.
    pub fn check_consistency(&self) -> Result<()> {
        self.chunks.replay_schedule()?;
        let chunk_instructions = self.chunks.total_instructions();
        if chunk_instructions > self.instructions {
            return Err(QrError::LogDecode(format!(
                "chunks cover {chunk_instructions} instructions but only {} retired",
                self.instructions
            )));
        }
        Ok(())
    }
}

/// Reads one recording file, naming it in the error on failure.
fn read_file(dir: &std::path::Path, name: &str) -> Result<Vec<u8>> {
    std::fs::read(dir.join(name))
        .map_err(|e| QrError::Execution { detail: format!("reading {name}: {e}") })
}

/// The per-file byte images of a saved recording — `meta.qrm`,
/// `chunks.qrl`, `inputs.qrl`, the optional `footprints.qrl` sidecar,
/// the optional `format.qrv` manifest and the optional
/// `checkpoints.qrc` index, exactly as they appear on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordingParts {
    /// `meta.qrm` image.
    pub meta: Vec<u8>,
    /// `chunks.qrl` image.
    pub chunks: Vec<u8>,
    /// `inputs.qrl` image.
    pub inputs: Vec<u8>,
    /// `footprints.qrl` image (an optional sidecar).
    pub footprints: Option<Vec<u8>>,
    /// `format.qrv` image (`None` for v2 recordings; see
    /// [`crate::format`]).
    pub format: Option<Vec<u8>>,
    /// `checkpoints.qrc` image (`None` until a checkpoint index is
    /// attached; always optional and regenerable).
    pub checkpoints: Option<Vec<u8>>,
    /// `order.qrp` image (`None` for total-order recordings).
    pub order: Option<Vec<u8>>,
}

impl RecordingParts {
    /// `(file name, bytes)` view over the present parts, in the layout
    /// order [`Recording::save`] writes them.
    pub fn files(&self) -> Vec<(&'static str, &[u8])> {
        let mut out = vec![
            (Recording::META_FILE, self.meta.as_slice()),
            (Recording::CHUNKS_FILE, self.chunks.as_slice()),
            (Recording::INPUTS_FILE, self.inputs.as_slice()),
        ];
        if let Some(fp) = &self.footprints {
            out.push((Recording::FOOTPRINTS_FILE, fp.as_slice()));
        }
        if let Some(fm) = &self.format {
            out.push((Recording::FORMAT_FILE, fm.as_slice()));
        }
        if let Some(cp) = &self.checkpoints {
            out.push((Recording::CHECKPOINTS_FILE, cp.as_slice()));
        }
        if let Some(ord) = &self.order {
            out.push((Recording::ORDER_FILE, ord.as_slice()));
        }
        out
    }

    /// Attaches a serialized checkpoint index and, when a format
    /// manifest is present, rewrites it so the manifest's payload list
    /// keeps describing exactly what the recording directory holds.
    ///
    /// # Errors
    ///
    /// Returns the manifest's decode error when the existing
    /// `format.qrv` is unreadable (the index is not attached then).
    pub fn attach_checkpoints(&mut self, bytes: Vec<u8>) -> Result<()> {
        if let Some(buf) = &self.format {
            let mut manifest = crate::format::FormatManifest::from_bytes(buf)?;
            if !manifest.payloads.contains(&PayloadKind::CheckpointIndex) {
                manifest.payloads.push(PayloadKind::CheckpointIndex);
                manifest.payloads.sort_by_key(|k| k.code());
            }
            self.format = Some(manifest.to_bytes());
        }
        self.checkpoints = Some(bytes);
        Ok(())
    }

    /// Assembles parts from `(file name, bytes)` pairs (the inverse of
    /// [`RecordingParts::files`]; unknown names are rejected).
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] when a required file is missing or a
    /// name is not part of the recording layout.
    pub fn from_files<S: AsRef<str>>(files: &[(S, Vec<u8>)]) -> Result<RecordingParts> {
        let mut meta = None;
        let mut chunks = None;
        let mut inputs = None;
        let mut footprints = None;
        let mut format = None;
        let mut checkpoints = None;
        let mut order = None;
        for (name, bytes) in files {
            match name.as_ref() {
                n if n == Recording::META_FILE => meta = Some(bytes.clone()),
                n if n == Recording::CHUNKS_FILE => chunks = Some(bytes.clone()),
                n if n == Recording::INPUTS_FILE => inputs = Some(bytes.clone()),
                n if n == Recording::FOOTPRINTS_FILE => footprints = Some(bytes.clone()),
                n if n == Recording::FORMAT_FILE => format = Some(bytes.clone()),
                n if n == Recording::CHECKPOINTS_FILE => checkpoints = Some(bytes.clone()),
                n if n == Recording::ORDER_FILE => order = Some(bytes.clone()),
                other => {
                    return Err(QrError::Corrupt {
                        what: "recording file set".into(),
                        offset: 0,
                        detail: format!("unexpected file `{other}`"),
                    })
                }
            }
        }
        let require = |part: Option<Vec<u8>>, name: &str| {
            part.ok_or_else(|| QrError::Corrupt {
                what: "recording file set".into(),
                offset: 0,
                detail: format!("missing `{name}`"),
            })
        };
        Ok(RecordingParts {
            meta: require(meta, Recording::META_FILE)?,
            chunks: require(chunks, Recording::CHUNKS_FILE)?,
            inputs: require(inputs, Recording::INPUTS_FILE)?,
            footprints,
            format,
            checkpoints,
            order,
        })
    }

    /// Writes the parts into `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] wrapping any I/O failure.
    pub fn save(&self, dir: &std::path::Path) -> Result<()> {
        let io = |e: std::io::Error| QrError::Execution { detail: format!("saving recording: {e}") };
        std::fs::create_dir_all(dir).map_err(io)?;
        for (name, bytes) in self.files() {
            std::fs::write(dir.join(name), bytes).map_err(io)?;
        }
        Ok(())
    }

    /// Reads the parts of a recording saved in `dir` (a missing
    /// footprint sidecar is legal; the three core files are not).
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] naming the first unreadable
    /// required file.
    pub fn read(dir: &std::path::Path) -> Result<RecordingParts> {
        Ok(RecordingParts {
            meta: read_file(dir, Recording::META_FILE)?,
            chunks: read_file(dir, Recording::CHUNKS_FILE)?,
            inputs: read_file(dir, Recording::INPUTS_FILE)?,
            footprints: std::fs::read(dir.join(Recording::FOOTPRINTS_FILE)).ok(),
            format: std::fs::read(dir.join(Recording::FORMAT_FILE)).ok(),
            checkpoints: std::fs::read(dir.join(Recording::CHECKPOINTS_FILE)).ok(),
            order: std::fs::read(dir.join(Recording::ORDER_FILE)).ok(),
        })
    }
}

/// What [`Recording::load_salvaged`] recovered (and lost) per log file.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryInfo {
    /// Chunk-log salvage outcome.
    pub chunks: SalvagedPackets,
    /// Input-log salvage outcome.
    pub inputs: InputSalvage,
    /// Ordering-sidecar salvage outcome (`None` for total-order
    /// recordings, which have no `order.qrp`).
    pub order: Option<OrderSalvage>,
}

impl RecoveryInfo {
    /// Whether every log decoded completely (no corruption anywhere).
    pub fn is_clean(&self) -> bool {
        self.chunks.corruption.is_none()
            && self.inputs.corruption.is_none()
            && self.order.as_ref().is_none_or(|o| o.corruption.is_none())
    }
}

/// Per-directory integrity report produced by [`Recording::verify_dir`].
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// One entry per expected recording file.
    pub files: Vec<FileCheck>,
}

impl VerifyReport {
    /// Whether every file decoded cleanly.
    pub fn all_ok(&self) -> bool {
        self.files.iter().all(|f| f.error.is_none())
    }
}

/// Integrity status of one recording file.
#[derive(Debug, Clone)]
pub struct FileCheck {
    /// File name within the recording directory.
    pub name: String,
    /// File size in bytes (`None` when unreadable).
    pub bytes: Option<u64>,
    /// Container format version (`None` for files that are not framed
    /// containers, and unreadable ones).
    pub version: Option<u8>,
    /// Structurally complete records in the framed container.
    pub records: usize,
    /// The first fault found, if any.
    pub error: Option<QrError>,
}

impl FileCheck {
    /// Runs the strict decoder for the recording file `name` over its
    /// image.
    fn run(name: &str, buf: &[u8]) -> FileCheck {
        let decoded = match name {
            Recording::META_FILE => RecordingMeta::from_bytes(buf).map(drop),
            Recording::CHUNKS_FILE => ChunkLog::from_bytes(buf).map(drop),
            Recording::INPUTS_FILE => InputLog::from_bytes(buf).map(drop),
            Recording::FOOTPRINTS_FILE => FootprintLog::from_bytes(buf).map(drop),
            Recording::FORMAT_FILE => FormatManifest::from_bytes(buf).map(drop),
            Recording::ORDER_FILE => OrderLog::from_bytes(buf).map(drop),
            // The checkpoint index is a replay cache, checked here at
            // the container level only: the replayer owns its inner
            // layout and regenerates it when absent.
            _ => frame::read(buf, PayloadKind::CheckpointIndex, "checkpoint index").map(drop),
        };
        let framed = frame::is_framed(buf);
        FileCheck {
            name: name.to_string(),
            bytes: Some(buf.len() as u64),
            version: buf.get(4).copied().filter(|_| framed),
            // The decoder above checksummed every record; this only
            // counts them.
            records: if framed { frame::record_spans(buf).len() } else { 0 },
            error: decoded.err(),
        }
    }

    /// The entry for a file that could not be read at all.
    fn unreadable(name: &str, error: QrError) -> FileCheck {
        FileCheck {
            name: name.to_string(),
            bytes: None,
            version: None,
            records: 0,
            error: Some(error),
        }
    }

    /// One-line human-readable status for reports.
    pub fn describe(&self) -> String {
        let size = match self.bytes {
            Some(b) => format!("{b} bytes"),
            None => "unreadable".to_string(),
        };
        let format = match self.version {
            Some(v) => format!("framed v{v}, {} records", self.records),
            None => "not framed".to_string(),
        };
        match &self.error {
            Some(e) => format!("{}: {size}, {format} — FAIL: {e}", self.name),
            None => format!("{}: {size}, {format} — ok", self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        RecordingConfig::default().validate().unwrap();
        assert_eq!(RecordingConfig::with_cores(2).cpu.num_cores, 2);
    }

    #[test]
    fn invalid_component_is_caught() {
        let mut cfg = RecordingConfig::default();
        cfg.mrr.cbuf_entries = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = RecordingConfig::default();
        cfg.os.quantum_cycles = 0;
        assert!(cfg.validate().is_err());
    }
}
