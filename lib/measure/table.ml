type row = {
  label : string;
  paper_us : float option;
  measured_us : float;
  incremental : bool;
}

let elapsed ?paper label measured_us =
  { label; paper_us = paper; measured_us; incremental = false }

let overhead ?paper label measured_us =
  { label; paper_us = paper; measured_us; incremental = true }

let render ppf ~title ?notes rows =
  let line = String.make 74 '-' in
  Format.fprintf ppf "%s@\n%s@\n" line title;
  Format.fprintf ppf "%-40s %12s %12s %6s@\n" "" "paper (us)" "sim (us)"
    "ratio";
  Format.fprintf ppf "%s@\n" line;
  List.iter
    (fun r ->
      let label = if r.incremental then "  " ^ r.label else r.label in
      let paper =
        match r.paper_us with
        | Some v -> Printf.sprintf "%12.1f" v
        | None -> Printf.sprintf "%12s" "-"
      in
      let ratio =
        match r.paper_us with
        | Some p when p <> 0. -> Printf.sprintf "%6.2f" (r.measured_us /. p)
        | Some _ | None -> Printf.sprintf "%6s" "-"
      in
      Format.fprintf ppf "%-40s %s %12.1f %s@\n" label paper r.measured_us
        ratio)
    rows;
  Format.fprintf ppf "%s@\n" line;
  (match notes with
  | Some n -> Format.fprintf ppf "%s@\n" n
  | None -> ());
  Format.fprintf ppf "@."

let print ~title ?notes rows = render Format.std_formatter ~title ?notes rows

let graft ~paper ~increments measure =
  let measured = List.map (fun p -> (p, measure p)) Path.all in
  let value p = List.assoc p measured in
  let row p =
    elapsed ?paper:(List.assoc_opt p paper) (Path.name p) (value p)
  in
  (* [q]'s row, after its increment over [p] when the graft labels one *)
  let after p q =
    match List.assoc_opt q increments with
    | None -> [ row q ]
    | Some label ->
        let paper =
          match (List.assoc_opt p paper, List.assoc_opt q paper) with
          | Some a, Some b -> Some (b -. a)
          | _ -> None
        in
        [ overhead ?paper label (value q -. value p); row q ]
  in
  let above_safe label q =
    [ overhead label (value q -. value Path.Safe); row q ]
  in
  List.concat
    [
      [ row Path.Base ];
      after Path.Base Path.Vino;
      after Path.Vino Path.Null;
      after Path.Null Path.Unsafe;
      after Path.Unsafe Path.Safe;
      above_safe "MiSFIT recovered by static verifier" Path.Verified;
      above_safe "Kcall-flow check (above Safe)" Path.FlowChecked;
      after Path.Safe Path.Abort;
    ]

module Json = Vino_trace.Json

let row_json r =
  Json.Obj
    [
      ("label", Json.String r.label);
      ( "paper_us",
        match r.paper_us with Some v -> Json.Float v | None -> Json.Null );
      ("us", Json.Float r.measured_us);
      ("cycles", Json.Int (Vino_vm.Costs.cycles_of_us r.measured_us));
      ("incremental", Json.Bool r.incremental);
    ]

let to_json ~name ~title ?(counters = []) rows =
  Json.Obj
    [
      ("schema", Json.String "vino-bench-v1");
      ("name", Json.String name);
      ("title", Json.String title);
      ("rows", Json.List (List.map row_json rows));
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters) );
    ]

let write_json ~file ~name ~title ?counters rows =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json ~name ~title ?counters rows)))
