//! Recording configuration and the recording artifact.

use crate::input_log::{InputLog, InputSalvage};
use crate::timeline::TimelineEvent;
use crate::overhead::{OverheadBreakdown, OverheadModel};
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
    /// evidence). `None` for legacy recordings and unsalvageable
    /// sidecars; parallel replay then falls back to the serial path.
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
    /// `QRM1` blob pre-framing recorders wrote bare).
    fn to_bytes(&self, outcome: &RecordingOutcomeFields) -> Vec<u8> {
        let mut w = frame::Writer::new(PayloadKind::Meta);
        w.record(&self.to_inner_bytes(outcome));
        w.finish()
    }

    /// The inner `QRM1` metadata blob (the framed record's payload, and
    /// the whole file in the legacy layout).
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

    /// Deserializes metadata written by [`RecordingMeta::to_bytes`]
    /// (framed) or by a pre-framing recorder (bare `QRM1` blob).
    fn from_bytes(buf: &[u8]) -> Result<(RecordingMeta, RecordingOutcomeFields)> {
        if !frame::is_framed(buf) {
            return Self::from_inner_bytes(buf, 0);
        }
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

    // Sequential field-by-field decode reads clearer than a giant
    // struct literal here.
    #[allow(clippy::field_reassign_with_default)]
    fn from_inner_bytes(
        buf: &[u8],
        base: usize,
    ) -> Result<(RecordingMeta, RecordingOutcomeFields)> {
        use qr_common::varint::read_u64;
        let corrupt = |off: usize, detail: String| QrError::Corrupt {
            what: "recording meta".into(),
            offset: (base + off) as u64,
            detail,
        };
        if buf.len() < 4 || &buf[..4] != Self::MAGIC {
            return Err(corrupt(0, "bad recording-meta magic".into()));
        }
        let mut off = 4usize;
        let next = |buf: &[u8], off: &mut usize| -> Result<u64> {
            let (v, n) =
                read_u64(buf.get(*off..).unwrap_or(&[])).map_err(|e| corrupt(*off, e.to_string()))?;
            *off += n;
            Ok(v)
        };
        let program_fingerprint = next(buf, &mut off)?;
        let tso_mode = match buf.get(off) {
            Some(0) => TsoMode::DrainAtChunk,
            Some(1) => TsoMode::Rsw,
            _ => return Err(corrupt(off, "bad tso mode".into())),
        };
        off += 1;
        let mut cpu = CpuConfig::default();
        cpu.num_cores = next(buf, &mut off)? as usize;
        cpu.drain_interval = next(buf, &mut off)?;
        cpu.mem.tso_mode = tso_mode;
        cpu.mem.l1_sets = next(buf, &mut off)? as u32;
        cpu.mem.l1_ways = next(buf, &mut off)? as u32;
        cpu.mem.store_buffer_entries = next(buf, &mut off)? as usize;
        cpu.mem.miss_penalty = next(buf, &mut off)?;
        cpu.mem.intervention_penalty = next(buf, &mut off)?;
        cpu.mem.hit_cycles = next(buf, &mut off)?;
        let mut os = OsConfig::default();
        os.quantum_cycles = next(buf, &mut off)?;
        os.stack_bytes = next(buf, &mut off)? as u32;
        os.stack_guard_bytes = next(buf, &mut off)? as u32;
        os.syscall_base_cycles = next(buf, &mut off)?;
        os.copy_cycles_per_byte = next(buf, &mut off)?;
        os.context_switch_cycles = next(buf, &mut off)?;
        os.input_seed = next(buf, &mut off)?;
        os.max_instructions = next(buf, &mut off)?;
        let cycles = next(buf, &mut off)?;
        let instructions = next(buf, &mut off)?;
        let exit_code = next(buf, &mut off)? as u32;
        let fingerprint = next(buf, &mut off)?;
        let console_len = next(buf, &mut off)? as usize;
        let end = off
            .checked_add(console_len)
            .filter(|&e| e <= buf.len())
            .ok_or_else(|| corrupt(off, "truncated console".into()))?;
        let console = buf[off..end].to_vec();
        if end != buf.len() {
            return Err(corrupt(end, format!("{} trailing bytes", buf.len() - end)));
        }
        Ok((
            RecordingMeta { program_fingerprint, tso_mode, cpu, os },
            RecordingOutcomeFields { cycles, instructions, exit_code, fingerprint, console },
        ))
    }
}

/// Scalar outcome fields persisted alongside the metadata.
struct RecordingOutcomeFields {
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
    /// Footprint-log file name (absent in legacy recordings).
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

    /// Reconstructs a recording from per-file byte images (the inverse
    /// of [`Recording::to_parts`], and what [`Recording::load`] does
    /// after reading the files).
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] with byte-offset context for
    /// malformed or version-mismatched images, [`QrError::LogDecode`]
    /// for internally inconsistent ones.
    pub fn from_parts(parts: &RecordingParts) -> Result<Recording> {
        // A present format manifest must decode and agree with the chunk
        // log's actual encoding; its absence is legal (v1/v2 layouts).
        if let Some(buf) = &parts.format {
            let manifest = crate::format::FormatManifest::from_bytes(buf)?;
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
        let (meta, outcome) = RecordingMeta::from_bytes(&parts.meta)?;
        let chunks = ChunkLog::from_bytes(&parts.chunks)?;
        let inputs = InputLog::from_bytes(&parts.inputs)?;
        let footprints = match &parts.footprints {
            Some(buf) => Some(FootprintLog::from_bytes(buf)?),
            None => None,
        };
        let order = match &parts.order {
            Some(buf) => Some(OrderLog::from_bytes(buf)?),
            None => None,
        };
        let recording = Recording {
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
            overhead: crate::overhead::OverheadBreakdown::default(),
            order,
        };
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
    /// recording without its platform metadata cannot anchor a replay.
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
    /// Returns an error only when the metadata image is undecodable.
    pub fn salvage_from_parts(parts: &RecordingParts) -> Result<(Recording, RecoveryInfo)> {
        let (meta, outcome) = RecordingMeta::from_bytes(&parts.meta)?;
        let (chunks, chunk_salvage) = ChunkLog::salvage_from_bytes(&parts.chunks);
        let (inputs, input_salvage) = InputLog::salvage_from_bytes(&parts.inputs);
        // A torn footprint sidecar salvages to a (possibly partial)
        // prefix; parallel replay checks coverage before relying on it.
        let footprints =
            parts.footprints.as_ref().map(|buf| FootprintLog::salvage_from_bytes(buf));
        // A torn ordering sidecar degrades to its longest clean edge
        // prefix — replay still honours every edge that survived.
        let (order, order_salvage) = match &parts.order {
            Some(buf) => {
                let (log, salvage) = OrderLog::salvage_from_bytes(buf);
                (Some(log), Some(salvage))
            }
            None => (None, None),
        };
        let recording = Recording {
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
            overhead: crate::overhead::OverheadBreakdown::default(),
            order,
        };
        Ok((
            recording,
            RecoveryInfo { chunks: chunk_salvage, inputs: input_salvage, order: order_salvage },
        ))
    }

    /// Integrity-checks every file of a saved recording without building
    /// one: full strict decode of metadata, chunk log and input log,
    /// reporting per-file size, format and the first fault (if any).
    pub fn verify_dir(dir: &std::path::Path) -> VerifyReport {
        let mut files = Vec::new();
        files.push(FileCheck::run(dir, Self::META_FILE, |buf| {
            RecordingMeta::from_bytes(buf).map(|_| ())
        }));
        files.push(FileCheck::run(dir, Self::CHUNKS_FILE, |buf| {
            ChunkLog::from_bytes(buf).map(|_| ())
        }));
        files.push(FileCheck::run(dir, Self::INPUTS_FILE, |buf| {
            InputLog::from_bytes(buf).map(|_| ())
        }));
        // The footprint sidecar is optional: legacy recordings without
        // one still verify clean, but a present-and-corrupt one fails.
        if dir.join(Self::FOOTPRINTS_FILE).exists() {
            files.push(FileCheck::run(dir, Self::FOOTPRINTS_FILE, |buf| {
                FootprintLog::from_bytes(buf).map(|_| ())
            }));
        }
        // Same contract for the format manifest (v1/v2 layouts lack it).
        if dir.join(Self::FORMAT_FILE).exists() {
            files.push(FileCheck::run(dir, Self::FORMAT_FILE, |buf| {
                crate::format::FormatManifest::from_bytes(buf).map(|_| ())
            }));
        }
        // The checkpoint index is a replay cache: optional, and checked
        // here at the container level only (the replayer owns its inner
        // layout and regenerates it when absent).
        if dir.join(Self::CHECKPOINTS_FILE).exists() {
            files.push(FileCheck::run(dir, Self::CHECKPOINTS_FILE, |buf| {
                frame::read(buf, PayloadKind::CheckpointIndex, "checkpoint index").map(|_| ())
            }));
        }
        // The ordering sidecar only exists for partial-order recordings;
        // when present it must decode strictly end to end.
        if dir.join(Self::ORDER_FILE).exists() {
            files.push(FileCheck::run(dir, Self::ORDER_FILE, |buf| {
                OrderLog::from_bytes(buf).map(|_| ())
            }));
        }
        VerifyReport { files }
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
    /// `footprints.qrl` image (`None` for legacy recordings).
    pub footprints: Option<Vec<u8>>,
    /// `format.qrv` image (`None` for v1/v2 recordings; see
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
    /// Container format version (`None` for legacy unframed files or
    /// unreadable ones).
    pub version: Option<u8>,
    /// CRC-32-protected records in the framed container.
    pub records: usize,
    /// Whether the file is in the legacy (unframed, checksum-free)
    /// layout.
    pub legacy: bool,
    /// The first fault found, if any.
    pub error: Option<QrError>,
}

impl FileCheck {
    /// Reads `name` in `dir` and runs the strict decoder over it.
    fn run(
        dir: &std::path::Path,
        name: &str,
        decode: impl FnOnce(&[u8]) -> Result<()>,
    ) -> FileCheck {
        let mut check = FileCheck {
            name: name.to_string(),
            bytes: None,
            version: None,
            records: 0,
            legacy: false,
            error: None,
        };
        let buf = match read_file(dir, name) {
            Ok(buf) => buf,
            Err(e) => {
                check.error = Some(e);
                return check;
            }
        };
        check.bytes = Some(buf.len() as u64);
        if frame::is_framed(&buf) {
            check.version = buf.get(4).copied();
            check.records = frame::scan(&buf).records.len();
        } else {
            check.legacy = true;
        }
        check.error = decode(&buf).err();
        check
    }

    /// One-line human-readable status for reports.
    pub fn describe(&self) -> String {
        let size = match self.bytes {
            Some(b) => format!("{b} bytes"),
            None => "unreadable".to_string(),
        };
        let format = if self.legacy {
            "legacy".to_string()
        } else if let Some(v) = self.version {
            format!("framed v{v}, {} records", self.records)
        } else {
            "unknown format".to_string()
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
