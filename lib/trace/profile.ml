type bucket = Sandbox | Txn | Undo

type row = {
  point : string;
  invocations : int;
  total : int;
  sandbox : int;
  txn : int;
  undo : int;
  body : int;
}

type frame = {
  point : string;
  start : int;
  mutable f_sandbox : int;
  mutable f_txn : int;
  mutable f_undo : int;
  mutable f_nested : int; (* cycles spent inside nested invocations *)
}

type agg = {
  mutable invocations : int;
  mutable a_total : int;
  mutable a_sandbox : int;
  mutable a_txn : int;
  mutable a_undo : int;
}

type t = {
  stacks : (int, frame list) Hashtbl.t; (* proc id -> innermost first *)
  aggs : (string, agg) Hashtbl.t;
}

let create () = { stacks = Hashtbl.create 16; aggs = Hashtbl.create 16 }

let stack t ctx =
  match Hashtbl.find_opt t.stacks ctx with Some s -> s | None -> []

let push_frame t ~ctx ~point ~now =
  let f =
    { point; start = now; f_sandbox = 0; f_txn = 0; f_undo = 0; f_nested = 0 }
  in
  Hashtbl.replace t.stacks ctx (f :: stack t ctx)

let charge t ~ctx bucket n =
  match stack t ctx with
  | [] -> ()
  | f :: _ -> (
      match bucket with
      | Sandbox -> f.f_sandbox <- f.f_sandbox + n
      | Txn -> f.f_txn <- f.f_txn + n
      | Undo -> f.f_undo <- f.f_undo + n)

let agg_for t point =
  match Hashtbl.find_opt t.aggs point with
  | Some a -> a
  | None ->
      let a =
        { invocations = 0; a_total = 0; a_sandbox = 0; a_txn = 0; a_undo = 0 }
      in
      Hashtbl.add t.aggs point a;
      a

let pop_frame t ~ctx ~now =
  match stack t ctx with
  | [] -> ()
  | f :: rest ->
      (if rest = [] then Hashtbl.remove t.stacks ctx
       else Hashtbl.replace t.stacks ctx rest);
      let elapsed = now - f.start in
      (* the parent sees this whole invocation as nested time, not body *)
      (match rest with
      | parent :: _ -> parent.f_nested <- parent.f_nested + elapsed
      | [] -> ());
      let a = agg_for t f.point in
      a.invocations <- a.invocations + 1;
      a.a_total <- a.a_total + (elapsed - f.f_nested);
      a.a_sandbox <- a.a_sandbox + f.f_sandbox;
      a.a_txn <- a.a_txn + f.f_txn;
      a.a_undo <- a.a_undo + f.f_undo

let rows t =
  Hashtbl.fold
    (fun point a acc ->
      ({
        point;
        invocations = a.invocations;
        total = a.a_total;
        sandbox = a.a_sandbox;
        txn = a.a_txn;
        undo = a.a_undo;
        body = a.a_total - a.a_sandbox - a.a_txn - a.a_undo;
      }
        : row)
      :: acc)
    t.aggs []
  |> List.sort (fun (a : row) (b : row) -> compare a.point b.point)

let pp ppf t =
  Format.fprintf ppf "%-28s %6s %10s %9s %9s %9s %9s@\n" "graft point" "invok"
    "cycles" "sandbox" "body" "txn" "undo";
  List.iter
    (fun (r : row) ->
      Format.fprintf ppf "%-28s %6d %10d %9d %9d %9d %9d@\n" r.point
        r.invocations r.total r.sandbox r.body r.txn r.undo)
    (rows t)
