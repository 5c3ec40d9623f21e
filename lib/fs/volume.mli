(** A simple volume: block allocation bitmap plus a flat directory.

    Files are contiguous extents (first-fit allocated) named in a single
    directory. The free-space bitmap is guarded by exactly the kind of
    short-hold lock the paper uses as its example of a tight time-out
    resource: "a free space bitmap should be locked for only a few
    hundreds of instructions while it is being traversed" (§3.2) — the
    bitmap lock here carries a sub-millisecond time-out. *)

type t

val create :
  Vino_core.Kernel.t ->
  disk:Disk.t ->
  ?blocks:int ->
  ?syncer_threshold:int ->
  unit ->
  t
(** Manage [blocks] (default 65536) of the disk behind one shared
    512-block cache and one write-back syncer (whose auto-flush threshold is
    [syncer_threshold]). *)

val cache : t -> Cache.t
val syncer : t -> Syncer.t

val create_file :
  t -> name:string -> blocks:int -> (File.t, string) result
(** First-fit allocate a contiguous extent and enter it in the directory.
    Must run inside an engine process (the bitmap lock is taken). *)

val open_file : t -> name:string -> (File.t, string) result
(** Open an existing file (a fresh open-file object per call, as in VINO:
    descriptors are handles for kernel open-file objects). *)

val delete_file : t -> name:string -> (unit, string) result
(** Remove from the directory and free the extent bits. *)

val list_files : t -> (string * int) list
(** [(name, blocks)], sorted by name. *)

val free_blocks : t -> int
val used_blocks : t -> int

val fragmentation : t -> float
(** 1 - (largest free run / total free); 0 when unfragmented or full. *)
