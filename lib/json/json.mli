(** The one JSON codec: a total reader for the subset the repo's decoders
    consume, and the string quoter every writer embeds strings with.

    Dependency-free on purpose: the lint library ([bwc_analysis]) links
    only compiler-libs, and the lint CI job installs nothing beyond dune
    and cmdliner.  Writers keep their own [Printf] layouts (committed
    reports, baselines and goldens pin those bytes); only the strings
    they embed go through {!quote}. *)

type t =
  | Obj of (string * t) list  (** members in input order, duplicates kept *)
  | Arr of t list
  | Str of string
  | Int of int
  | Bool of bool

val of_string : string -> (t, string) result
(** Parses one value, surrounded by optional whitespace.  Accepts
    objects, arrays, strings, integers and [true]/[false] — no [null],
    no floats.  String escapes are the eight short ones (quote,
    backslash, slash, b, f, n, r, t) and [\u00XX], decoded as that
    byte; other bytes are taken raw.  Never raises: malformed input, a
    [\u] code point above [0xff], a lone [-], an integer outside [int],
    or nesting deeper than 512 levels returns [Error] naming the byte
    offset. *)

val quote : string -> string
(** The string as a JSON string literal, quotes included: short escapes
    for the quote, backslash, newline, carriage return and tab,
    [\u00XX] for every other byte below [0x20], every other byte raw.
    [of_string (quote s) = Ok (Str s)] for every [s]. *)
