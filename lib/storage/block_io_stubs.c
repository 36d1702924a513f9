/* Positioned block I/O for the file backend of Block_device: one
   pread(2) or pwrite(2) per record, so a block read or write needs no
   lseek and leaves the descriptor's offset alone.

   The runtime lock is released around each syscall, as Unix.read and
   Unix.write do.  The OCaml buffer may move while the lock is out, so
   the bytes go through a stack buffer the GC cannot touch.  A short
   transfer is continued at the next position until the request is
   done or the file ends; errors raise Unix.Unix_error. */

#define _FILE_OFFSET_BITS 64
#include <errno.h>
#include <string.h>
#include <unistd.h>

#define CAML_NAME_SPACE
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#define CHUNK 65536

/* [hsq_pread fd buf ofs len pos] reads [len] bytes of the file from
   byte [pos] into [buf] from [ofs]; returns the bytes read, fewer than
   [len] only at the end of the file. */
CAMLprim value hsq_pread(value fd, value buf, value vofs, value vlen, value vpos)
{
  CAMLparam1(buf);
  char chunk[CHUNK];
  long ofs = Long_val(vofs), len = Long_val(vlen), done = 0;
  off_t pos = (off_t)Long_val(vpos);
  while (done < len) {
    size_t want = (size_t)(len - done < CHUNK ? len - done : CHUNK);
    ssize_t n;
    caml_enter_blocking_section();
    n = pread(Int_val(fd), chunk, want, pos + done);
    caml_leave_blocking_section();
    if (n == -1) caml_uerror("pread", Nothing);
    if (n == 0) break;
    memcpy(&Byte(buf, ofs + done), chunk, (size_t)n);
    done += n;
  }
  CAMLreturn(Val_long(done));
}

/* [hsq_pwrite fd buf ofs len pos] writes [len] bytes of [buf] from
   [ofs] to the file at byte [pos]; returns the bytes written. */
CAMLprim value hsq_pwrite(value fd, value buf, value vofs, value vlen, value vpos)
{
  CAMLparam1(buf);
  char chunk[CHUNK];
  long ofs = Long_val(vofs), len = Long_val(vlen), done = 0;
  off_t pos = (off_t)Long_val(vpos);
  while (done < len) {
    size_t want = (size_t)(len - done < CHUNK ? len - done : CHUNK);
    ssize_t n;
    memcpy(chunk, &Byte(buf, ofs + done), want);
    caml_enter_blocking_section();
    n = pwrite(Int_val(fd), chunk, want, pos + done);
    caml_leave_blocking_section();
    if (n == -1) caml_uerror("pwrite", Nothing);
    if (n == 0) break;
    done += n;
  }
  CAMLreturn(Val_long(done));
}
