(** A kernel-resident NFS-style file service as an event graft (§3.5 names
    NFS servers alongside HTTP as the motivating event-graft services).

    The handler is added to a UDP port's event point (one datagram = one
    request = one worker thread + transaction). Its graft-callable kernel
    functions go through the real file-system substrate, so a request for
    an uncached block blocks the worker on simulated disk I/O — the whole
    stack, network event to disk and back, under graft protection. *)

type t

val create : Vino_core.Kernel.t -> ?port:int -> unit -> t
(** Claims the UDP port (default 2049) and registers ["nfs.lookup"],
    ["nfs.read"] and ["nfs.reply"]. *)

val port : t -> Port.t

val export : t -> fileid:int -> Vino_fs.File.t -> unit
(** Make a file reachable by id. *)

val server_source : Vino_vm.Asm.item list

val install : t -> cred:Vino_core.Cred.t -> (int, string) result

val read_request : t -> fileid:int -> block:int -> unit
(** Client side: send one read datagram. Run the kernel afterwards. *)

type status = Ok_read of { cache_hit : bool } | No_such_file | Bad_block

val responses : t -> status list
(** Oldest first. A reply enters the log when the handler's transaction
    commits, so an aborted handler leaves none. *)
