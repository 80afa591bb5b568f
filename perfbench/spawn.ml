(* One cold run of a command, as a user pays for it: a fresh process whose
   modelled caches start empty.  Measures the child's wall clock, its CPU
   time ([Unix.times] children fields), its peak OCaml heap (the runtime's
   exit report under OCAMLRUNPARAM=v=0x400, printed on stderr) and its
   peak thread count (entries of /proc/<pid>/task, polled). *)

type run = {
  ok : bool;  (** exited 0 and printed the expected stdout *)
  wall_s : float;
  cpu_s : float;
  heap_mb : float;  (** [nan] when the exit report is missing *)
  threads : int;
  stdout : string;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let child_env =
  lazy
    (Unix.environment () |> Array.to_list
    |> List.filter (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
    |> List.cons "OCAMLRUNPARAM=v=0x400"
    |> Array.of_list)

let tasks pid =
  match Sys.readdir (Printf.sprintf "/proc/%d/task" pid) with
  | entries -> Array.length entries
  | exception Sys_error _ -> 0

let top_heap_mb stderr =
  let key = "top_heap_words: " in
  String.split_on_char '\n' stderr
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:key line then
           let n = String.length key in
           int_of_string_opt (String.sub line n (String.length line - n))
         else None)
  |> function
  | Some words -> float_of_int (words * (Sys.word_size / 8)) /. 1048576.
  | None -> Float.nan

let rec wait pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

(* Run [prog args] from the current directory with stdout and stderr in
   files under [work]; [ok] requires exit code 0 and, when [expect] is
   given, stdout equal to it byte for byte. *)
let run ~work ?expect prog args =
  let out = Filename.concat work "stdout" and err = Filename.concat work "stderr" in
  let openw p = Unix.openfile p [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let fd_in = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let fd_out = openw out and fd_err = openw err in
  let before = Unix.times () in
  let t0 = Clock.now () in
  let pid =
    Unix.create_process_env prog
      (Array.of_list (prog :: args))
      (Lazy.force child_env) fd_in fd_out fd_err
  in
  let peak = Atomic.make 0 and stop = Atomic.make false in
  let poller =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          let n = tasks pid in
          if n > Atomic.get peak then Atomic.set peak n;
          Thread.delay 0.002
        done)
      ()
  in
  let _, status = wait pid in
  let t1 = Clock.now () in
  let after = Unix.times () in
  Atomic.set stop true;
  Thread.join poller;
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  let stdout = read_file out in
  let ok =
    status = Unix.WEXITED 0
    && match expect with Some e -> String.equal e stdout | None -> true
  in
  {
    ok;
    wall_s = t1 -. t0;
    cpu_s =
      after.tms_cutime +. after.tms_cstime
      -. (before.tms_cutime +. before.tms_cstime);
    heap_mb = top_heap_mb (read_file err);
    threads = Atomic.get peak;
    stdout;
  }
