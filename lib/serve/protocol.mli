(** The [nvscav serve] wire protocol, version {!version}.

    Newline-delimited JSON over a stream socket
    ({!Nvsc_util.Json.Lines}): each frame is one JSON object on one line.
    The server greets every connection with a [hello] frame carrying the
    protocol version; clients send request frames and receive zero or
    more [progress] frames (each a verbatim chunk of report text,
    streamed in cell order) followed by exactly one [done] or [error]
    frame with the matching request id.

    A request frame is
    [{"nvsc":1,"id":N,"op":OP,"args":{...}}] — the version field is
    checked on every request, and a malformed frame is answered with a
    structured error naming the offending field (the connection stays
    up). *)

module Json = Nvsc_util.Json

val version : int
(** Bump on any incompatible frame-shape change. *)

val server_name : string

(** {1 Requests} *)

type request =
  | Ping  (** liveness probe; answered with a [done] frame *)
  | Stats of { strip_time : bool }
      (** server + metrics snapshot as JSON; [strip_time] drops
          wall-clock ([_ns]) readings for reproducible output *)
  | Shutdown  (** acknowledge, then drain and stop the server *)
  | Analyze of { app : string; scale : float; iterations : int }
  | Run of { app : string; scale : float; iterations : int; tech : string }
  | Replay of { path : string; kind : string; tech : string }
      (** [path] is resolved on the {e server}'s filesystem *)
  | Sweep of {
      apps : string list option;
      kinds : string list option;
      techs : string list option;
      scale : float;
      iterations : int;
      overrides : string list;  (** raw [key=value,...] specs *)
      from_trace : string option;
    }

type error = {
  err_id : int option;  (** echoed request id, when one could be parsed *)
  code : string;
      (** [bad-frame], [bad-request], [version-mismatch], [overloaded],
          [shutting-down] or [failed] *)
  field : string option;  (** offending request field, when known *)
  message : string;
}

type frame =
  | Hello of { protocol : int; server : string }
  | Progress of { id : int; seq : int; out : string }
      (** one report section; concatenated [out] chunks are
          byte-identical to the corresponding local subcommand's
          stdout *)
  | Done_frame of {
      id : int;
      cells : int;
      hits : int;
      misses : int;
      result : Json.t option;  (** payload of [ping]/[stats] replies *)
    }
  | Error_frame of error

(** {1 Codecs} *)

val request_to_json : id:int -> request -> Json.t

val decode_request : Json.t -> (int * request, error) result
(** Returns the request id and the request, or a structured error naming
    the offending field.  Version mismatches decode as
    [code = "version-mismatch"]. *)

val frame_to_json : frame -> Json.t

val frame_of_json : Json.t -> (frame, string) result

val error_to_string : error -> string
