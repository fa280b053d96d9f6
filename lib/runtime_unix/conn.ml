open Dds_net

(** One buffered, non-blocking TCP connection on a {!Loop}.

    Reads feed a {!Wire.deframer} and surface complete payloads
    through [on_frame], then call [on_drained] (a no-op unless the
    owner sets it) once every complete frame of that read has been
    surfaced. Writes only append to an output buffer: the first write
    of a reactor turn registers one flush with {!Loop.defer}, so every
    frame the connection gets in a turn leaves in one [write(2)] at the
    turn's end. What the socket does not accept stays buffered with
    write-interest registered on the loop — so a slow peer can never
    deadlock two nodes writing to each other. {!close} tries one
    non-blocking write of what is still buffered before it closes the
    fd, so a frame written just before it is not lost. [on_close] fires
    exactly once, for EOF, error, or {!close}. *)

type t = {
  fd : Unix.file_descr;
  loop : Loop.t;
  df : Wire.deframer;
  out : Buffer.t;
  mutable deferred : bool;  (** a flush is registered for this turn *)
  mutable closed : bool;
  mutable on_frame : t -> string -> unit;
  mutable on_close : t -> unit;
  mutable on_drained : unit -> unit;
}

let chunk = Bytes.create 65536

let close t =
  if not t.closed then begin
    (if Buffer.length t.out > 0 then
       try ignore (Unix.write_substring t.fd (Buffer.contents t.out) 0 (Buffer.length t.out))
       with Unix.Unix_error _ -> ());
    t.closed <- true;
    Loop.unwatch_read t.loop t.fd;
    Loop.unwatch_write t.loop t.fd;
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    t.on_close t
  end

let rec flush_out t =
  if t.closed then ()
  else if Buffer.length t.out > 0 then begin
    let data = Buffer.to_bytes t.out in
    match Unix.write t.fd data 0 (Bytes.length data) with
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
      Loop.watch_write t.loop t.fd (fun () -> flush_out t)
    | exception Unix.Unix_error _ -> close t
    | n ->
      Buffer.clear t.out;
      if n < Bytes.length data then begin
        Buffer.add_subbytes t.out data n (Bytes.length data - n);
        Loop.watch_write t.loop t.fd (fun () -> flush_out t)
      end
      else Loop.unwatch_write t.loop t.fd
  end
  else Loop.unwatch_write t.loop t.fd

let write t s =
  if not t.closed then begin
    Buffer.add_string t.out s;
    if not t.deferred then begin
      t.deferred <- true;
      Loop.defer t.loop (fun () ->
          t.deferred <- false;
          flush_out t)
    end
  end

let write_frame t b = write t (Wire.frame b)

let on_readable t () =
  if not t.closed then begin
    match Unix.read t.fd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close t
    | 0 -> close t
    | n -> (
      match Wire.feed t.df chunk n with
      | exception Wire.Malformed _ -> close t
      | () ->
        let continue = ref true in
        while !continue && not t.closed do
          match Wire.next_frame t.df with
          | Some payload -> t.on_frame t payload
          | None -> continue := false
          | exception Wire.Malformed _ -> close t
        done;
        t.on_drained ())
  end

let create ~loop ~fd ~on_frame ~on_close =
  Unix.set_nonblock fd;
  let t =
    {
      fd;
      loop;
      df = Wire.deframer ();
      out = Buffer.create 4096;
      deferred = false;
      closed = false;
      on_frame;
      on_close;
      on_drained = ignore;
    }
  in
  Loop.watch_read loop fd (on_readable t);
  t
