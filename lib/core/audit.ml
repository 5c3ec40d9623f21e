module Ring = Vino_trace.Ring
module Trace = Vino_trace.Trace
module Counters = Vino_trace.Counters

type event =
  | Load_rejected of { point : string; reason : string }
  | Graft_installed of { point : string; user : string }
  | Graft_removed of { point : string }
  | Graft_failed of { point : string; reason : string }
  | Handler_added of { point : string; handler : int; user : string }
  | Handler_failed of { point : string; handler : int; reason : string }
  | Flow_violation of { point : string; last : string; next : string }
  | Admission_rejected of { point : string; tenant : string; reason : string }

type entry = { at_us : float; event : event }
type t = { ring : entry Ring.t }

let default_capacity = 4096
let create ?(capacity = default_capacity) () = { ring = Ring.create ~capacity }

let h_load_rejected = Counters.handle "audit.load_rejected"
let h_graft_installed = Counters.handle "audit.graft_installed"
let h_graft_removed = Counters.handle "audit.graft_removed"
let h_graft_failed = Counters.handle "audit.graft_failed"
let h_handler_added = Counters.handle "audit.handler_added"
let h_handler_failed = Counters.handle "audit.handler_failed"
let h_flow_violation = Counters.handle "audit.flow_violation"
let h_admission_rejected = Counters.handle "audit.admission_rejected"

let counter = function
  | Load_rejected _ -> h_load_rejected
  | Graft_installed _ -> h_graft_installed
  | Graft_removed _ -> h_graft_removed
  | Graft_failed _ -> h_graft_failed
  | Handler_added _ -> h_handler_added
  | Handler_failed _ -> h_handler_failed
  | Flow_violation _ -> h_flow_violation
  | Admission_rejected _ -> h_admission_rejected

let record t ~now_us event =
  Trace.incr_h (counter event);
  Ring.push t.ring { at_us = now_us; event }

let entries t = Ring.to_list t.ring
let count t = Ring.length t.ring
let capacity t = Ring.capacity t.ring
let total t = Ring.total t.ring
let dropped t = Ring.dropped t.ring
let clear t = Ring.clear t.ring

let is_failure = function
  | Load_rejected _ | Graft_failed _ | Handler_failed _ | Flow_violation _
  | Admission_rejected _ ->
      true
  | Graft_installed _ | Graft_removed _ | Handler_added _ -> false

let failures t = List.filter (fun e -> is_failure e.event) (entries t)
let saver t = Ring.saver t.ring

let pp_event ppf = function
  | Load_rejected { point; reason } ->
      Format.fprintf ppf "load rejected at %s: %s" point reason
  | Graft_installed { point; user } ->
      Format.fprintf ppf "graft installed at %s by %s" point user
  | Graft_removed { point } -> Format.fprintf ppf "graft removed from %s" point
  | Graft_failed { point; reason } ->
      Format.fprintf ppf "graft at %s failed: %s" point reason
  | Handler_added { point; handler; user } ->
      Format.fprintf ppf "handler %d added to %s by %s" handler point user
  | Handler_failed { point; handler; reason } ->
      Format.fprintf ppf "handler %d on %s failed: %s" handler point reason
  | Flow_violation { point; last; next } ->
      Format.fprintf ppf "kcall-flow violation in %s: %s after %s" point next
        last
  | Admission_rejected { point; tenant; reason } ->
      Format.fprintf ppf "admission rejected at %s for %s: %s" point tenant
        reason

let pp ppf t =
  (if dropped t > 0 then
     Format.fprintf ppf "[... %d older entries dropped ...]@." (dropped t));
  List.iter
    (fun e -> Format.fprintf ppf "[%10.1f us] %a@." e.at_us pp_event e.event)
    (entries t)
