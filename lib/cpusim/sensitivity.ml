module Technology = Nvsc_nvram.Technology

type point = {
  tech : Technology.t;
  latency_ns : float;
  runtime_ns : float;
  normalized_runtime : float;
  report : Perf_model.report;
}

let ddr3 (t : Technology.t) = t.tech = Technology.DDR3

let require_baseline fn techs =
  if not (List.exists ddr3 techs) then
    invalid_arg (fn ^ ": DDR3 baseline required")

(* Runtimes relative to the first DDR3 report. *)
let normalise raw =
  let base =
    match List.find_opt (fun (t, _) -> ddr3 t) raw with
    | Some (_, r) -> r.Perf_model.runtime_ns
    | None -> assert false (* checked by [require_baseline] *)
  in
  List.map
    (fun ((tech : Technology.t), (r : Perf_model.report)) ->
      {
        tech;
        latency_ns = tech.perf_sim_latency_ns;
        runtime_ns = r.runtime_ns;
        normalized_runtime = r.runtime_ns /. base;
        report = r;
      })
    raw

let run ?(techs = Technology.paper_set) ?(asymmetric = false) ~replay () =
  require_baseline "Sensitivity.run" techs;
  normalise
    (List.map
       (fun (tech : Technology.t) ->
         Nvsc_obs.Span.with_ ~arg:tech.name "cpusim.sensitivity" @@ fun () ->
         let model =
           if asymmetric then
             Perf_model.create ~mem_write_latency_ns:tech.write_latency_ns
               ~mem_latency_ns:tech.read_latency_ns ()
           else
             Perf_model.create ~mem_latency_ns:tech.perf_sim_latency_ns ()
         in
         replay model;
         (tech, Perf_model.report model))
       techs)

let run_shared ?(techs = Technology.paper_set) ?(asymmetric = false) ~replay
    () =
  require_baseline "Sensitivity.run_shared" techs;
  let arg =
    String.concat "," (List.map (fun (t : Technology.t) -> t.name) techs)
  in
  let reports =
    Nvsc_obs.Span.with_ ~arg "cpusim.sensitivity" @@ fun () ->
    let lat f = Array.of_list (List.map f techs) in
    let model =
      if asymmetric then
        Perf_model.create_lanes
          ~mem_write_latency_ns:(lat (fun t -> t.Technology.write_latency_ns))
          ~mem_latency_ns:(lat (fun t -> t.Technology.read_latency_ns))
          ()
      else
        Perf_model.create_lanes
          ~mem_latency_ns:(lat (fun t -> t.Technology.perf_sim_latency_ns))
          ()
    in
    replay model;
    Perf_model.reports model
  in
  normalise (List.combine techs (Array.to_list reports))
