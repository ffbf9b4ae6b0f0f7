(** Plain-text serialization of TAG models, so tenants can describe
    applications in a file and tools can exchange them:

    {v
    # three-tier web service
    tag shop
    component web 4
    component logic 4
    component db 2
    external internet
    edge web logic 300 200      # per-VM <send, recv> Mbps
    edge logic web 200 300
    selfloop db 50              # intra-tier hose
    edge web internet 25 0
    v}

    Lines are [tag NAME], [component NAME SIZE] (or
    [component NAME SIZE SLOTS] for heterogeneous VM types),
    [external NAME],
    [edge SRC DST SEND RECV], [duplex A B FWD BACK] (footnote 6's
    undirected shorthand: expands to the two directed edges),
    [selfloop NAME SR]; [#] starts a comment;
    blank lines are ignored.  Components must be declared before the
    edges that use them. *)

type error =
  | Malformed of { line : int; msg : string }
      (** Unknown directive or component, or a number that does not
          parse. *)
  | Negative of { line : int; what : string }
      (** A bandwidth below zero. *)
  | Non_finite of { line : int; what : string; text : string }
      (** A bandwidth that reads as NaN or an infinity ([text] is the
          token as written). *)
  | Invalid_tag of string
      (** The lines parse but {!Tag.create} rejects the TAG they
          describe (non-positive size, duplicate edge...). *)
  | Io of string  (** {!of_file} could not read the file. *)

val error_to_string : error -> string
(** One-line message; names the offending line where there is one. *)

val of_string : string -> (Tag.t, error) result
(** Parse; errors carry the offending line number. *)

val to_text : Tag.t -> string
(** Render a TAG in the same format; [of_string (to_text t)] succeeds
    and yields an equal TAG. *)

val of_file : string -> (Tag.t, error) result
(** Read and parse a file. *)
