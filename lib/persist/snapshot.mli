(** Crash-consistent whole-system snapshots.

    A snapshot captures everything durable a running system holds:
    the dataset matrix, bandwidth classes, the full prediction-tree
    geometry of every tree in the ensemble (vertices, edge weights,
    anchor overlay, distance labels), the aggregation protocol's links
    (per anchor neighbor: received tables, seq/ACK/epoch state, pending
    out-entry, failure-detector lease clock and suspicion state), the
    RNG streams, and the centralized index counts (when materialised).  A
    {!decode} therefore yields a system that answers queries
    immediately and resumes aggregation mid-epoch — restart without
    reconvergence.

    Deliberately {e not} captured: in-flight engine messages (a crash
    loses the network; the protocol's seq/ACK + retransmission layer is
    the recovery mechanism for exactly that loss, so restored unacked
    entries simply resend) and metrics counters (observability restarts
    from zero).

    Encoding is deterministic: snapshot → restore → re-snapshot is
    byte-identical, which CI checks with [cmp].  All validation errors
    inside a structurally intact container surface as
    {!Codec.Corrupt} — decoding never raises, whatever the bytes.

    With [?metrics], entry points maintain [persist.snapshots],
    [persist.restores], [persist.restore_rejected] and
    [persist.cold_starts]; with [?trace] they emit [Snapshot_write],
    [Restore] and [Restore_rejected] events. *)

type source = [ `System of Bwc_core.System.t | `Dynamic of Bwc_core.Dynamic.t ]

type restored =
  | Restored_system of Bwc_core.System.t
  | Restored_dynamic of Bwc_core.Dynamic.t

val encode :
  ?metrics:Bwc_obs.Registry.t -> ?trace:Bwc_obs.Trace.t -> source -> string
(** The complete snapshot file image (container + payload). *)

val decode :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  string ->
  (restored, Codec.error) result
(** Verifies the container (magic, version, length, CRC-32), then decodes
    and validates every layer, then re-assembles a live system.  Any
    corruption — truncation, bit flips, stale versions, semantic
    violations — comes back as [Error]; this function never raises. *)

val save :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  source ->
  string ->
  unit
(** [save src path]: {!encode} then {!Codec.write_file} (atomic
    temp-and-rename, so a crash mid-save never tears the file). *)

val load :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  string ->
  (restored, Codec.error) result

val restore_or_cold :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  cold:(unit -> restored) ->
  string ->
  restored * [ `Warm | `Cold of Codec.error ]
(** Graceful degradation: a verified snapshot restores warm; any
    rejection falls back to [cold ()] (typically a full rebuild +
    reconvergence) and reports why.  Counts [persist.cold_starts] and
    emits [Restore {warm = false}] on the fallback path. *)

val gen_path : string -> int -> string
(** [gen_path path g] is the on-disk name of generation [g]: [path]
    itself for [g = 0] (the newest image), ["path.g"] otherwise. *)

val rotate :
  ?metrics:Bwc_obs.Registry.t ->
  ?keep:int ->
  path:string ->
  string ->
  (unit, Codec.error) result
(** [rotate ~keep ~path bytes] installs [bytes] as the newest snapshot
    image after shifting existing generations one slot down, retaining
    the last [keep] (default 3) images: [path], [path.1], ...,
    [path.(keep - 1)].  The oldest image falls off the end.

    Safety: [bytes] is container-verified (magic, version, length,
    CRC-32) {e before} anything on disk moves, and a verification
    failure is returned without touching the chain — rotation can never
    replace the only valid image with garbage.  The final write itself
    goes through {!Codec.write_file} (atomic temp-and-rename).  Counts
    [persist.rotations] / [persist.rotate_rejected].  Raises
    [Invalid_argument] if [keep < 1]. *)

val load_any :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  ?keep:int ->
  string ->
  (restored * int, (int * Codec.error) list) result
(** Walk the rotated generations newest-first and restore the first
    image that verifies; [Ok (restored, g)] names the generation that
    won.  Missing files are skipped silently; existing-but-rejected
    generations are reported (with their index) in the [Error] list
    when every generation fails — an empty list means no generation
    exists at all.  A successful fallback past generation 0 counts
    [persist.generation_fallbacks]. *)

val restored_protocol : restored -> Bwc_core.Protocol.t
val restored_round : restored -> int
