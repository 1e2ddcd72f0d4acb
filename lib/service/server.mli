(** The `opera serve` daemon: a long-running analysis service over
    {!Scenario.Engine}.

    {!run} listens on a Unix-domain socket (and optionally TCP on the
    loopback interface), speaks the line-delimited JSON protocol of
    {!Protocol}, and pushes batch submissions through a bounded
    admission queue into a single executor domain.  With a cache
    directory configured, every submission runs with result-registry
    replay: a batch that was already served streams back bitwise — zero
    factorizations, zero solves — at registry-read speed.

    Disk budget: after each request the executor enforces the byte cap
    with {!Scenario.Store.evict} (LRU by mtime; the just-served
    request's journal entries are protected), and every [gc_every]
    requests it bounds the journal's entry count with
    {!Scenario.Registry.sweep}.

    Observability (through [config.metrics]): counters
    [service.requests], [service.replays], [service.rejects],
    [service.errors], [service.connections]; histograms
    [service.queue_depth] (admission-time depth) and
    [service.request_s] (admission-to-completion latency); plus every
    [engine.*] / [store.*] / [registry.*] metric of the underlying
    runs, merged per request.

    Shutdown: SIGTERM, SIGINT or a [{"op":"shutdown"}] request stop the
    accept loop, drain everything already admitted, close the
    connections and remove the socket file. *)

exception Invalid_config of string
(** A configuration {!run} refuses to start with (bad queue capacity,
    out-of-range TCP port, a listen path occupied by a non-socket, a
    disk budget without a cache dir).  Raised before any socket is
    bound, so the CLI maps it to the usage-error discipline (exit 2). *)

type config = {
  listen : string;  (** Unix-domain socket path *)
  tcp : int option;  (** also listen on 127.0.0.1:port *)
  cache_dir : string option;
      (** artifact store + results registry; [None] disables result
          reuse (every submission recomputes) *)
  cache_max_bytes : int option;
      (** byte cap enforced by LRU eviction after every request *)
  max_results : int option;
      (** journal entry-count cap enforced every [gc_every] requests *)
  gc_every : int;  (** registry-GC period in requests; [<= 0] disables *)
  queue_capacity : int;  (** admission queue bound; full queue = reject *)
  jobs_parallel : int;  (** {!Scenario.Engine.config.jobs_parallel} *)
  domains : int;  (** {!Scenario.Engine.config.domains} *)
  warm_start : bool;
  metrics : Util.Metrics.t;
  handle_signals : bool;
      (** install SIGTERM/SIGINT drain handlers and ignore SIGPIPE;
          disable for in-process embedding (tests, benches) *)
}

val default_config : config
(** [opera.sock], no TCP, no cache, queue of 64, registry GC every 32
    requests, engine defaults, global metrics, signals handled. *)

val max_pending_bytes : int
(** Most bytes one connection may send without a newline (8 MiB).  Past
    it the server answers with one {!Protocol.error_line} and closes that
    connection; other connections are unaffected. *)

val run : config -> unit
(** Bind, serve, block until shutdown, drain, clean up.  Raises
    {!Invalid_config} on a refused configuration and propagates
    [Unix.Unix_error] from a failed bind (e.g. address in use). *)
