(* The benchmark's entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (or "all" of them in turn), prints human-readable
   notes, then as its last line one JSON object with the output-check
   accounting and every metric the run measured.  Exits 1 when an output
   check failed, 2 on bad arguments. *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" ("all" :: Mdccbench.Bench.workloads)
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_of (r : Mdccbench.Bench.result) =
  let metrics =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float value) unit)
      r.Mdccbench.Bench.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.Mdccbench.Bench.correct r.Mdccbench.Bench.attempted r.Mdccbench.Bench.failed
    (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := (match int_of_string_opt v with Some n -> n | None -> usage ());
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := (match float_of_string_opt v with Some s when s > 0.0 -> s | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> 0 | "1" -> 1 | _ -> usage ());
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let names =
    if String.equal !workload "all" then Mdccbench.Bench.workloads
    else if List.mem !workload Mdccbench.Bench.workloads then [ !workload ]
    else usage ()
  in
  let results =
    List.map
      (fun name ->
        let r = Mdccbench.Bench.run name ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
        Printf.printf "== %s (seed %d, %g s, trace %d): %s, %d attempted, %d failed\n" name !seed
          !seconds !trace (if r.Mdccbench.Bench.correct then "correct" else "INCORRECT")
          r.Mdccbench.Bench.attempted r.Mdccbench.Bench.failed;
        List.iter (fun l -> print_endline ("  " ^ l)) r.Mdccbench.Bench.notes;
        List.iter
          (fun (n, v, u) -> Printf.printf "  %-44s %.6g %s\n" n v u)
          r.Mdccbench.Bench.metrics;
        if List.length names > 1 then print_endline (json_of r);
        r)
      names
  in
  let ok = List.for_all (fun r -> r.Mdccbench.Bench.correct) results in
  (match results with [ r ] -> print_endline (json_of r) | _ -> ());
  exit (if ok then 0 else 1)
