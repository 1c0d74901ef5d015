//! Programmable fragment processing: instruction set, assembler, the
//! per-draw span-kernel compiler every draw runs, the reference
//! interpreter it is checked against, and the paper's builtin programs.

pub mod builtin;
pub mod compiled;
pub mod interp;
pub mod isa;
pub mod parser;

pub use compiled::{ShadedSpan, SpanKernel, SpanRegisters, SPAN};
pub use interp::{execute, FragmentContext, FragmentInput, ProgramOutput};
pub use isa::{FragmentProgram, Instruction, Opcode};
pub use parser::assemble;
