module Technology = Nvsc_nvram.Technology

type point = {
  tech : Technology.t;
  latency_ns : float;
  runtime_ns : float;
  normalized_runtime : float;
  report : Perf_model.report;
}

let run ?params ?(techs = Technology.paper_set) ?(asymmetric = false) ~replay
    () =
  let raw =
    List.map
      (fun (tech : Technology.t) ->
        Nvsc_obs.Span.with_ ~arg:tech.name "cpusim.sensitivity" @@ fun () ->
        let model =
          if asymmetric then
            Perf_model.create ?params
              ~mem_write_latency_ns:tech.write_latency_ns
              ~mem_latency_ns:tech.read_latency_ns ()
          else
            Perf_model.create ?params
              ~mem_latency_ns:tech.perf_sim_latency_ns ()
        in
        replay model;
        (tech, Perf_model.report model))
      techs
  in
  let base =
    match
      List.find_opt (fun ((t : Technology.t), _) -> t.tech = Technology.DDR3) raw
    with
    | Some (_, r) -> r.Perf_model.runtime_ns
    | None -> invalid_arg "Sensitivity.run: DDR3 baseline required"
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
