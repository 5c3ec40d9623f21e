(** A kernel-resident HTTP server built as an event graft (Figure 2).

    The server is a handler added to a TCP port's event point: each
    connection-established event carries a request (method word + path
    hash); the handler looks the document up and responds through
    graft-callable kernel functions. The kernel-side response log lets
    applications and tests observe what was served. *)

type t

val create : Vino_core.Kernel.t -> ?port:int -> ?budget:int -> unit -> t
(** Registers the graft-callable functions ["http.lookup"] and
    ["http.respond"] (once per kernel) and claims the TCP port
    (default 80). [budget] bounds one handler invocation's cycles (passed
    to the port's event point). *)

val port : t -> Port.t

val add_document : t -> path:int -> size:int -> unit
(** Publish a document under a path hash. *)

val server_source : Vino_vm.Asm.item list
(** The HTTP server graft: GET → lookup → 200 with the document size, or
    404. *)

val install : t -> cred:Vino_core.Cred.t -> (int, string) result
(** Seal {!server_source} with the kernel's toolchain key and add it as a
    handler; returns the handler id. *)

val get : t -> path:int -> unit
(** Client side: open a connection carrying a GET for [path]. Run the
    engine to completion before reading {!responses}. *)

val responses : t -> (int * int) list
(** All [(status, size)] responses, oldest first. A response enters the
    log when the handler's transaction commits, so an aborted handler
    leaves none. *)
