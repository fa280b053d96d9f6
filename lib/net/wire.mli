(** Length-prefixed binary framing and codec primitives.

    The Unix runtime backend speaks frames over TCP: a 4-byte
    big-endian payload length followed by the payload. Payloads are
    built with the [put_*] writers into a [Buffer.t] and decoded with
    the [get_*] readers; every protocol implements its message codec
    ([put_msg]/[get_msg] in {!Dds_core.Register_intf.PROTOCOL}) from
    these primitives, so the framing layer never learns message
    shapes.

    Decoding is strict: a reader that runs out of bytes raises
    {!Truncated}, a structurally impossible payload (bad tag,
    oversized length, trailing garbage at the frame level) raises
    {!Malformed}. Nothing here touches sockets — the deframer is a
    pure accumulator fed arbitrary chunks — which is what makes the
    codec qcheck-testable without I/O. *)

exception Truncated
(** The payload ended mid-field. *)

exception Malformed of string
(** The bytes cannot be a frame/message (bad tag, absurd length...). *)

val max_frame : int
(** Upper bound on a payload length (16 MiB); a length prefix above it
    raises [Malformed] rather than allocating attacker-chosen
    buffers. *)

(** {1 Wire protocol version}

    The envelope layer ({!Dds_runtime_unix.Frame}) has one layout. Its
    [Hello]/[Client_hello] frames still carry a version byte, so a
    peer speaking anything else is refused with a typed error instead
    of being misparsed. *)

val v2 : int
(** The keyed wire protocol, the only one this build speaks:
    [Read_req]/[Write_req]/[Resp] carry a key, [Msg] carries a shard
    id. *)

(** {1 Writers} *)

val put_u8 : Buffer.t -> int -> unit
(** Low 8 bits of the argument. *)

val put_int : Buffer.t -> int -> unit
(** Full-range OCaml [int], 8 bytes big-endian two's complement
    (safe for [min_int] sentinels like {!Dds_spec.Value.bottom}'s
    sequence number). *)

val put_bool : Buffer.t -> bool -> unit

val put_string : Buffer.t -> string -> unit
(** [put_int] length then raw bytes. *)

val put_key : Buffer.t -> int -> unit
(** A 63-bit non-negative register key, encoded like [put_int].
    @raise Malformed on a negative key (keys are hashes masked to the
    low 62 bits, so a negative key is a caller bug, not data). *)

(** {1 Readers} *)

type reader
(** A cursor over one decoded payload. *)

val reader : string -> reader
val remaining : reader -> int

val get_u8 : reader -> int
val get_int : reader -> int
val get_bool : reader -> bool
val get_string : reader -> string

val get_key : reader -> int
(** @raise Malformed on a negative key. *)

val expect_end : reader -> unit
(** @raise Malformed if undecoded bytes remain — a frame must be
    exactly one message. *)

(** {1 Framing} *)

val frame : Buffer.t -> string
(** The buffer's contents wrapped in a 4-byte big-endian length
    prefix, ready to write to a socket.
    @raise Malformed if the payload exceeds {!max_frame}. *)

type deframer
(** Incremental frame extractor: feed it chunks as they arrive off a
    socket, pop complete payloads. *)

val deframer : unit -> deframer

val feed : deframer -> bytes -> int -> unit
(** [feed d chunk len] appends the first [len] bytes of [chunk].
    @raise Malformed as soon as a length prefix exceeds
    {!max_frame}. *)

val next_frame : deframer -> string option
(** The next complete payload, if one is buffered.
    @raise Malformed if the next length prefix exceeds {!max_frame}:
    [feed] checks only the first buffered prefix, so a hostile one
    that arrived behind a complete frame surfaces here. *)

val pending_bytes : deframer -> int
(** Bytes buffered but not yet popped as frames (diagnostic: non-zero
    at connection close means the peer died mid-frame). *)
